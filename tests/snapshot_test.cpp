// Tests for the durable-session half of the serving layer: the versioned
// snapshot codec (encode/decode framing, checksum, structural validation),
// SAVE/--restore-dir round trips that must answer byte-identically after a
// restart without rebuilding any environment, the PIN/COMMIT/UNCOMMIT/
// REROUTE/UNPIN lifecycle over the wire, pin ownership gating, and the
// HELLO capability handshake of protocol v2.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/search_environment.hpp"
#include "io/text_format.hpp"
#include "serve/protocol.hpp"
#include "serve/routing_service.hpp"
#include "serve/snapshot.hpp"
#include "workload/netgen.hpp"

namespace {

using namespace gcr;
namespace fs = std::filesystem;

std::string workload_text(std::size_t cells, std::size_t nets,
                          std::uint64_t seed) {
  return io::write_layout_string(
      workload::standard_workload(cells, 512, nets, seed));
}

/// A per-test temporary directory, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "gcr_snapshot_test_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = ::mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) fs::remove_all(path, ec);
  }
};

/// Runs a scripted connection against an existing service and returns
/// everything it wrote.
std::string run_on(serve::RoutingService& service, const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  serve::serve_connection(service, in, out);
  return out.str();
}

struct Frame {
  std::string status;
  std::string body;
};

Frame next_frame(std::istringstream& in) {
  Frame f;
  EXPECT_TRUE(static_cast<bool>(std::getline(in, f.status)));
  std::istringstream is(f.status);
  std::string kw;
  std::size_t nbytes = 0;
  is >> kw;
  if (kw == "OK" && (is >> nbytes) && nbytes > 0) {
    f.body.resize(nbytes);
    in.read(f.body.data(), static_cast<std::streamsize>(nbytes));
  }
  return f;
}

/// Status line with the run-dependent timing meta chopped off, so two runs
/// of the same deterministic request compare equal.
std::string strip_timing(const std::string& status) {
  const std::size_t pos = status.find(" queue_us=");
  return pos == std::string::npos ? status : status.substr(0, pos);
}

/// The first handle a fresh registry mints — deterministic, so protocol
/// scripts can name it before the PIN reply arrives.
const char kFirstHandle[] = "pin-0000000000000001";

std::shared_ptr<std::atomic<bool>> make_owner() {
  return std::make_shared<std::atomic<bool>>(false);
}

/// Drives LOAD + PIN + COMMIT(all nets) + SAVE through the service API and
/// returns the snapshot file's bytes.
std::string write_snapshot(const fs::path& dir, const std::string& text) {
  serve::RoutingService::Options opts;
  opts.workers = 1;
  opts.snapshot_dir = dir.string();
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  const auto owner = make_owner();

  serve::PinRequest pin;
  pin.op = serve::PinRequest::Op::kPin;
  pin.key = session->key;
  pin.owner = owner;
  const serve::PinResponse pinned = service.pin_op(std::move(pin));
  EXPECT_TRUE(pinned.ok()) << pinned.error;

  serve::PinRequest commit;
  commit.op = serve::PinRequest::Op::kCommit;
  commit.key = pinned.handle;
  for (const auto& net : session->layout.nets()) {
    commit.nets.push_back(net.name());
  }
  commit.owner = owner;
  const serve::PinResponse committed = service.pin_op(std::move(commit));
  EXPECT_TRUE(committed.ok()) << committed.error;

  serve::PinRequest save;
  save.op = serve::PinRequest::Op::kSave;
  save.key = pinned.handle;
  save.save_name = "codec.snap";
  save.owner = owner;
  const serve::PinResponse saved = service.pin_op(std::move(save));
  EXPECT_TRUE(saved.ok()) << saved.error;

  std::ifstream in(dir / "codec.snap", std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// decode_snapshot's error message, or "" when the blob decodes.
std::string decode_error(const std::string& blob) {
  try {
    (void)serve::decode_snapshot(blob);
  } catch (const std::exception& e) {
    return e.what();
  }
  return std::string();
}

// ------------------------------------------------------------------ codec

TEST(SnapshotCodec, ReencodeIsByteIdentical) {
  TempDir dir;
  const std::string blob = write_snapshot(dir.path, workload_text(9, 12, 7));
  ASSERT_FALSE(blob.empty());

  const serve::PinSnapshot snap = serve::decode_snapshot(blob);
  EXPECT_EQ(snap.handle, kFirstHandle);
  EXPECT_FALSE(snap.layout_text.empty());
  EXPECT_EQ(snap.lines.size(), 4 + 4 * snap.obstacles.size());
  EXPECT_GT(snap.committed.size(), 0u);
  // Every commit record has a route record; the reverse need not hold — a
  // net whose route failed (or produced no segments) is recorded in
  // `routes` but committed no obstacles.
  EXPECT_LE(snap.committed.size(), snap.routes.size());

  // The codec is canonical: decode → encode reproduces the exact bytes.
  EXPECT_EQ(serve::encode_snapshot(snap), blob);
}

TEST(SnapshotCodec, TruncationAndCorruptionRejected) {
  TempDir dir;
  const std::string blob = write_snapshot(dir.path, workload_text(9, 12, 7));
  ASSERT_GT(blob.size(), 64u);

  // Every truncated prefix throws — dense over the header, sampled beyond.
  for (std::size_t len = 0; len < 64; ++len) {
    EXPECT_NE(decode_error(blob.substr(0, len)), "") << "prefix " << len;
  }
  for (std::size_t len = 64; len < blob.size(); len += 97) {
    EXPECT_NE(decode_error(blob.substr(0, len)), "") << "prefix " << len;
  }

  // Trailing garbage is not ignored.
  EXPECT_NE(decode_error(blob + 'x'), "");

  // A flipped payload byte trips the checksum.
  std::string flipped = blob;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_NE(decode_error(flipped).find("checksum"), std::string::npos);

  // A damaged magic or version is called out before any payload work.
  std::string bad_magic = blob;
  bad_magic[0] ^= 0x01;
  EXPECT_NE(decode_error(bad_magic).find("bad magic"), std::string::npos);
  std::string bad_version = blob;
  bad_version[8] ^= 0x7f;
  EXPECT_NE(decode_error(bad_version).find("unsupported version"),
            std::string::npos);
}

// ---------------------------------------------------------------- restore

TEST(SnapshotRestore, RerouteByteIdenticalAcrossRestartWithZeroBuilds) {
  TempDir dir;
  const layout::Layout lay = workload::standard_workload(9, 512, 12, 7);
  const std::string text = io::write_layout_string(lay);
  const std::string key = serve::SessionCache::content_key(text);
  std::string all_nets;
  for (const auto& net : lay.nets()) {
    if (!all_nets.empty()) all_nets += ',';
    all_nets += net.name();
  }
  const std::string rip =
      lay.nets()[0].name() + "," + lay.nets()[1].name();

  // ---- first server lifetime: pin, commit, save, then answer a REROUTE.
  // The reference REROUTE runs *after* SAVE, so the snapshot holds exactly
  // the state that answer was computed from.
  std::string live_status, live_body;
  std::string commit_meta;
  {
    serve::RoutingService::Options opts;
    opts.workers = 1;
    opts.snapshot_dir = dir.path.string();
    serve::RoutingService service(opts);
    const std::string script =
        "LOAD " + std::to_string(text.size()) + "\n" + text + "PIN " + key +
        "\n" + "COMMIT " + std::string(kFirstHandle) + " nets=" + all_nets +
        "\nSAVE " + kFirstHandle + " soak.snap\nREROUTE " + kFirstHandle +
        " nets=" + rip + "\nQUIT\n";
    std::istringstream replies(run_on(service, script));

    const Frame load = next_frame(replies);
    ASSERT_EQ(load.status.rfind("OK ", 0), 0u) << load.status;
    const Frame pin = next_frame(replies);
    ASSERT_EQ(pin.status.rfind("OK ", 0), 0u) << pin.status;
    EXPECT_NE(pin.status.find("pin=" + std::string(kFirstHandle)),
              std::string::npos)
        << pin.status;
    EXPECT_NE(pin.status.find("session=" + key), std::string::npos);
    const Frame commit = next_frame(replies);
    ASSERT_EQ(commit.status.rfind("OK ", 0), 0u) << commit.status;
    commit_meta = strip_timing(commit.status);
    const Frame save = next_frame(replies);
    ASSERT_EQ(save.status.rfind("OK ", 0), 0u) << save.status;
    EXPECT_NE(save.status.find("bytes="), std::string::npos);
    const Frame reroute = next_frame(replies);
    ASSERT_EQ(reroute.status.rfind("OK ", 0), 0u) << reroute.status;
    live_status = strip_timing(reroute.status);
    live_body = reroute.body;
    EXPECT_FALSE(live_body.empty());
  }
  ASSERT_TRUE(fs::exists(dir.path / "soak.snap"));

  // ---- second server lifetime: restore must not build any environment —
  // rehydration re-derives lookup tables only (that is the whole point of
  // the snapshot), and the pin's REROUTE mutates incrementally.
  const std::size_t builds = route::SearchEnvironment::build_count();
  serve::RoutingService::Options opts;
  opts.workers = 1;
  opts.restore_dir = dir.path.string();
  serve::RoutingService service(opts);
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds)
      << "restore must rehydrate without a single environment build";
  ASSERT_EQ(service.pins().size(), 1u);
  EXPECT_EQ(service.snapshot().pins_restored, 1u);

  const std::string script = "PIN " + std::string(kFirstHandle) +
                             "\nREROUTE " + kFirstHandle + " nets=" + rip +
                             "\nQUIT\n";
  std::istringstream replies(run_on(service, script));
  const Frame claim = next_frame(replies);
  ASSERT_EQ(claim.status.rfind("OK ", 0), 0u) << claim.status;
  EXPECT_NE(claim.status.find("session=" + key), std::string::npos)
      << claim.status;
  const Frame reroute = next_frame(replies);
  ASSERT_EQ(reroute.status.rfind("OK ", 0), 0u) << reroute.status;

  // The restarted server answers byte-identically (timing excluded).
  EXPECT_EQ(strip_timing(reroute.status), live_status);
  EXPECT_EQ(reroute.body, live_body);
  EXPECT_EQ(route::SearchEnvironment::build_count(), builds)
      << "pin REROUTE must stay incremental after restore";
}

TEST(SnapshotRestore, CorruptOrTruncatedBlobLeavesSessionAbsent) {
  TempDir dir;
  const std::string blob = write_snapshot(dir.path, workload_text(9, 12, 7));
  ASSERT_FALSE(blob.empty());

  // Overwrite with a truncated copy and drop in a garbage sibling: the
  // restoring server must come up with *no* pins, never a half-restored
  // one.
  {
    std::ofstream out(dir.path / "codec.snap",
                      std::ios::binary | std::ios::trunc);
    out.write(blob.data(),
              static_cast<std::streamsize>(blob.size() / 2));
  }
  {
    std::ofstream out(dir.path / "garbage.snap", std::ios::binary);
    out << "this is not a snapshot";
  }

  serve::RoutingService::Options opts;
  opts.workers = 1;
  opts.restore_dir = dir.path.string();
  serve::RoutingService service(opts);
  EXPECT_EQ(service.pins().size(), 0u);
  EXPECT_EQ(service.snapshot().pins_restored, 0u);
}

// -------------------------------------------------------------- lifecycle

TEST(PinProtocol, LifecycleOverTheWire) {
  const std::string text = workload_text(9, 12, 7);
  const std::string key = serve::SessionCache::content_key(text);
  const layout::Layout lay = workload::standard_workload(9, 512, 12, 7);
  const std::string n0 = lay.nets()[0].name();

  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const std::string handle(kFirstHandle);
  const std::string script =
      "LOAD " + std::to_string(text.size()) + "\n" + text + "PIN " + key +
      "\n" + "PIN " + handle + "\n" +      // idempotent re-claim
      "COMMIT " + handle + " nets=" + n0 + "\n" +
      "UNCOMMIT " + handle + " nets=" + n0 + "\n" +
      "SAVE " + handle + " x.snap\n" +     // snapshots not enabled
      "UNPIN " + handle + "\n" +
      "COMMIT " + handle + " nets=" + n0 + "\n" +  // gone after UNPIN
      "QUIT\n";
  std::istringstream replies(run_on(service, script));

  (void)next_frame(replies);  // LOAD
  const Frame pin = next_frame(replies);
  ASSERT_EQ(pin.status.rfind("OK 0 ", 0), 0u) << pin.status;
  EXPECT_NE(pin.status.find("pin=" + handle), std::string::npos);
  EXPECT_NE(pin.status.find("session=" + key), std::string::npos);
  EXPECT_NE(pin.status.find("committed=0"), std::string::npos);
  const Frame reclaim = next_frame(replies);
  ASSERT_EQ(reclaim.status.rfind("OK 0 ", 0), 0u)
      << "same-owner PIN must be an idempotent claim: " << reclaim.status;
  EXPECT_NE(reclaim.status.find("pin=" + handle), std::string::npos);
  const Frame commit = next_frame(replies);
  ASSERT_EQ(commit.status.rfind("OK ", 0), 0u) << commit.status;
  EXPECT_NE(commit.status.find("pin=" + handle), std::string::npos);
  EXPECT_NE(commit.status.find("committed="), std::string::npos);
  const Frame uncommit = next_frame(replies);
  ASSERT_EQ(uncommit.status.rfind("OK ", 0), 0u) << uncommit.status;
  EXPECT_NE(uncommit.status.find("removed=1"), std::string::npos)
      << uncommit.status;
  EXPECT_NE(uncommit.status.find("committed=0"), std::string::npos);
  const Frame save = next_frame(replies);
  EXPECT_EQ(save.status.rfind("ERR ", 0), 0u) << save.status;
  EXPECT_NE(save.status.find("snapshots are disabled"), std::string::npos);
  const Frame unpin = next_frame(replies);
  ASSERT_EQ(unpin.status.rfind("OK 0 ", 0), 0u) << unpin.status;
  EXPECT_NE(unpin.status.find("released=1"), std::string::npos);
  const Frame gone = next_frame(replies);
  EXPECT_EQ(gone.status.rfind("ERR ", 0), 0u)
      << "COMMIT after UNPIN must fail: " << gone.status;
  const Frame bye = next_frame(replies);
  EXPECT_EQ(bye.status, "OK 0 bye");

  EXPECT_EQ(service.pins().size(), 0u);
  const serve::MetricsSnapshot snap = service.snapshot();
  EXPECT_EQ(snap.pins_created, 1u);
  EXPECT_EQ(snap.pins_released, 1u);
}

TEST(PinProtocol, DisconnectAutoReleases) {
  const std::string text = workload_text(9, 12, 7);
  const std::string key = serve::SessionCache::content_key(text);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);

  // The connection ends (EOF) without UNPIN; serve_connection's exit path
  // must release the pin through the owner token.
  const std::string script =
      "LOAD " + std::to_string(text.size()) + "\n" + text + "PIN " + key +
      "\n";
  std::istringstream replies(run_on(service, script));
  (void)next_frame(replies);
  const Frame pin = next_frame(replies);
  ASSERT_EQ(pin.status.rfind("OK 0 ", 0), 0u) << pin.status;
  EXPECT_EQ(service.pins().size(), 0u)
      << "disconnect must auto-release owned pins";
  EXPECT_EQ(service.snapshot().pins_released, 1u);
}

TEST(PinRegistry, OwnershipGatesMutations) {
  const std::string text = workload_text(9, 12, 7);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  const auto owner1 = make_owner();
  const auto owner2 = make_owner();

  serve::PinRequest pin;
  pin.op = serve::PinRequest::Op::kPin;
  pin.key = session->key;
  pin.owner = owner1;
  const serve::PinResponse created = service.pin_op(std::move(pin));
  ASSERT_TRUE(created.ok()) << created.error;

  // Another connection can neither claim, mutate, nor release it.
  serve::PinRequest steal;
  steal.op = serve::PinRequest::Op::kPin;
  steal.key = created.handle;
  steal.owner = owner2;
  EXPECT_FALSE(service.pin_op(std::move(steal)).ok());

  serve::PinRequest mutate;
  mutate.op = serve::PinRequest::Op::kCommit;
  mutate.key = created.handle;
  mutate.nets = {session->layout.nets()[0].name()};
  mutate.owner = owner2;
  EXPECT_FALSE(service.pin_op(std::move(mutate)).ok());

  serve::PinRequest unpin;
  unpin.op = serve::PinRequest::Op::kUnpin;
  unpin.key = created.handle;
  unpin.owner = owner2;
  EXPECT_FALSE(service.pin_op(std::move(unpin)).ok());
  EXPECT_EQ(service.pins().size(), 1u);

  // The owner's disconnect releases it.
  service.release_pins(owner1);
  EXPECT_EQ(service.pins().size(), 0u);
}

TEST(PinRegistry, DroppedConnectionCannotDeriveOrClaim) {
  // A dropped connection's flag flips before its pins are released, but a
  // PIN it queued earlier can still reach a worker afterwards.  Neither a
  // derive nor a claim may then register the dead connection as an owner:
  // nothing would ever release that pin again.
  const std::string text = workload_text(9, 12, 7);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  const auto dead = make_owner();
  dead->store(true);

  serve::PinRequest derive;
  derive.op = serve::PinRequest::Op::kPin;
  derive.key = session->key;
  derive.owner = dead;
  const serve::PinResponse derived = service.pin_op(std::move(derive));
  EXPECT_EQ(derived.status, serve::RouteStatus::kCancelled);
  EXPECT_EQ(derived.error, "cancelled: connection closed");
  EXPECT_EQ(service.snapshot().pins_active, 0u);

  // An unowned pin (as after a restore or a draining disconnect) stays
  // claimable by a live connection after a dead one tried to claim it.
  const auto owner1 = make_owner();
  serve::PinRequest pin;
  pin.op = serve::PinRequest::Op::kPin;
  pin.key = session->key;
  pin.owner = owner1;
  const serve::PinResponse created = service.pin_op(std::move(pin));
  ASSERT_TRUE(created.ok()) << created.error;
  service.release_pins(owner1, /*preserve=*/true);

  serve::PinRequest dead_claim;
  dead_claim.op = serve::PinRequest::Op::kPin;
  dead_claim.key = created.handle;
  dead_claim.owner = dead;
  const serve::PinResponse refused = service.pin_op(std::move(dead_claim));
  EXPECT_EQ(refused.status, serve::RouteStatus::kCancelled);
  EXPECT_EQ(refused.error, "cancelled: connection closed");

  serve::PinRequest live_claim;
  live_claim.op = serve::PinRequest::Op::kPin;
  live_claim.key = created.handle;
  live_claim.owner = make_owner();
  const serve::PinResponse claimed = service.pin_op(std::move(live_claim));
  EXPECT_TRUE(claimed.ok()) << claimed.error;
}

// ------------------------------------------------------------------ hello

TEST(Protocol, HelloAdvertisesVerbTable) {
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  std::istringstream replies(run_on(service, "HELLO\nQUIT\n"));
  const Frame hello = next_frame(replies);
  ASSERT_EQ(hello.status.rfind("OK ", 0), 0u) << hello.status;
  EXPECT_NE(hello.status.find("version=2"), std::string::npos)
      << hello.status;
  EXPECT_NE(hello.status.find(
                "verbs=" + std::to_string(serve::verb_table().size())),
            std::string::npos)
      << hello.status;

  // One body line per verb, each led by "verb "; the capability list names
  // required knobs with a '!' marker.
  std::istringstream body(hello.body);
  std::size_t lines = 0;
  std::string line;
  bool saw_pin = false, saw_save = false, saw_reroute_nets = false;
  while (std::getline(body, line)) {
    EXPECT_EQ(line.rfind("verb ", 0), 0u) << line;
    ++lines;
    if (line.rfind("verb PIN args=1", 0) == 0) saw_pin = true;
    if (line.rfind("verb SAVE args=2", 0) == 0) saw_save = true;
    if (line.rfind("verb REROUTE", 0) == 0 &&
        line.find("nets!") != std::string::npos) {
      saw_reroute_nets = true;
    }
  }
  EXPECT_EQ(lines, serve::verb_table().size());
  EXPECT_TRUE(saw_pin);
  EXPECT_TRUE(saw_save);
  EXPECT_TRUE(saw_reroute_nets);
}

// --------------------------------------------------- drain-time final save

TEST(FinalSave, RidesTicketChainSoInFlightMutationsLandInSnapshot) {
  TempDir dir;
  const std::string text = workload_text(9, 12, 21);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  opts.snapshot_dir = dir.path.string();
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  const auto owner = make_owner();

  serve::PinRequest pin;
  pin.op = serve::PinRequest::Op::kPin;
  pin.key = session->key;
  pin.owner = owner;
  const serve::PinResponse pinned = service.pin_op(std::move(pin));
  ASSERT_TRUE(pinned.ok()) << pinned.error;

  // The regression scenario: SIGINT lands while a COMMIT is still in the
  // pin's ticket chain.  The final save acquires a LATER ticket, so it must
  // observe the committed state — never a torn or pre-commit snapshot.
  serve::PinRequest commit;
  commit.op = serve::PinRequest::Op::kCommit;
  commit.key = pinned.handle;
  for (const auto& net : session->layout.nets()) {
    commit.nets.push_back(net.name());
  }
  commit.owner = owner;
  std::atomic<bool> commit_done{false};
  std::atomic<std::size_t> commit_routed{0};
  service.submit(std::move(commit), [&](serve::Response resp) {
    EXPECT_TRUE(resp.ok()) << resp.error;
    commit_routed.store(std::stoul(serve::meta_value(resp.meta, "routed")));
    commit_done.store(true);
  });

  EXPECT_EQ(service.final_save_pins(), 1u);
  // The ticket chain orders the *mutation* before the save; the response
  // callback fires just after finish_turn, so give it a beat.
  for (int i = 0; i < 5000 && !commit_done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(commit_done.load()) << "commit never completed";
  // Incremental commits leave the halo of each committed net in place, so
  // not every net of the workload routes — what matters is that the
  // snapshot holds the commit's *final* count, never a torn prefix of it.
  EXPECT_GT(commit_routed.load(), 0u);

  const fs::path file = dir.path / pinned.handle;
  ASSERT_TRUE(fs::exists(file));
  std::ifstream is(file, std::ios::binary);
  std::stringstream blob;
  blob << is.rdbuf();
  const serve::PinSnapshot snap = serve::decode_snapshot(blob.str());
  EXPECT_EQ(snap.handle, pinned.handle);
  EXPECT_EQ(snap.committed.size(), commit_routed.load())
      << "final save overtook the ticket chain (torn snapshot)";
  EXPECT_EQ(service.snapshot().pin_autosaves, 1u);

  // Drain-style release: ownership drops (the connection is gone) but the
  // pin survives, unowned, for later saves and re-claims...
  service.release_pins(owner, /*preserve=*/true);
  EXPECT_EQ(service.snapshot().pins_active, 1u);

  // ...and the snapshot restores into a fresh service where a successor
  // can claim the handle.
  serve::RoutingService::Options ropts;
  ropts.workers = 1;
  ropts.restore_dir = dir.path.string();
  serve::RoutingService restored(ropts);
  EXPECT_EQ(restored.snapshot().pins_restored, 1u);
  serve::PinRequest claim;
  claim.op = serve::PinRequest::Op::kPin;
  claim.key = pinned.handle;
  claim.owner = make_owner();
  EXPECT_TRUE(restored.pin_op(std::move(claim)).ok());
}

TEST(FinalSave, NonPreservingReleaseStillDestroysPins) {
  // The steady-state disconnect path must keep its old semantics: without
  // preserve, releasing the owner erases the pin outright.
  const std::string text = workload_text(9, 12, 21);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  const auto owner = make_owner();

  serve::PinRequest pin;
  pin.op = serve::PinRequest::Op::kPin;
  pin.key = session->key;
  pin.owner = owner;
  ASSERT_TRUE(service.pin_op(std::move(pin)).ok());
  EXPECT_EQ(service.snapshot().pins_active, 1u);

  service.release_pins(owner);
  EXPECT_EQ(service.snapshot().pins_active, 0u);
  EXPECT_EQ(service.final_save_pins(), 0u);  // no dir, nothing registered
}

TEST(FinalSave, PeriodicAutosaveSweepsHotPins) {
  TempDir dir;
  const std::string text = workload_text(9, 12, 22);
  serve::RoutingService::Options opts;
  opts.workers = 1;
  opts.snapshot_dir = dir.path.string();
  opts.snapshot_interval_s = 1;
  serve::RoutingService service(opts);
  const auto session = service.load(text);
  const auto owner = make_owner();

  serve::PinRequest pin;
  pin.op = serve::PinRequest::Op::kPin;
  pin.key = session->key;
  pin.owner = owner;
  const serve::PinResponse pinned = service.pin_op(std::move(pin));
  ASSERT_TRUE(pinned.ok()) << pinned.error;

  // The sweep runs every second and snapshots pins it does NOT own (the
  // system bypass); the artifact is named by handle, ready for
  // --restore-dir.
  const fs::path file = dir.path / pinned.handle;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (!fs::exists(file) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(fs::exists(file)) << "autosave never wrote " << file;
  // The counter counts durable saves only, so it is bumped after the
  // rename that makes the file visible: wait for it under the same
  // deadline.
  while (service.snapshot().pin_autosaves < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(service.snapshot().pin_autosaves, 1u);

  // The blob on disk is a valid snapshot of this pin.
  std::ifstream is(file, std::ios::binary);
  std::stringstream blob;
  blob << is.rdbuf();
  EXPECT_EQ(serve::decode_snapshot(blob.str()).handle, pinned.handle);
}

}  // namespace
