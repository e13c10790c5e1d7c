// Writes a real blackbox dump for tests/obs/blackbox_roundtrip_test.py.
//
//   blackbox_dump_writer <dump.bin>
//
// Commits one PERSEAS transaction, crashes the primary mid-propagation at
// an injected failure point, recovers on another workstation and notes an
// anomaly.  So the cluster's flight recorder holds fault.point events
// (string ids below core::points::kFailurePointCount: registry rows) and
// recover.step / fault.anomaly events (ids above it: interned strings).
// The dump goes to <dump.bin> and FlightRecorder::narrative() to stdout,
// one line per event; the test renders the dump with
// tools/perseas-blackbox.py and requires the same lines.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "core/perseas.hpp"

using namespace perseas;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: blackbox_dump_writer <dump.bin>\n");
    return 2;
  }
  try {
    netram::Cluster cluster(sim::HardwareProfile::forth_1997(), 3);
    netram::RemoteMemoryServer server(cluster, 1);
    core::Perseas db(cluster, 0, {&server}, {});
    auto rec = db.persistent_malloc(256);
    db.init_remote_db();
    const auto write = [&](const char* text) {
      auto txn = db.begin_transaction();
      txn.set_range(rec, 0, 16);
      std::memcpy(rec.bytes().data(), text, 16);
      txn.commit();
    };
    write("COMMITTED.......");

    cluster.failures().arm("perseas.commit.after_range_copy", [&] {
      cluster.crash_node(0, sim::FailureKind::kSoftwareCrash);
      throw sim::NodeCrashed(0, sim::FailureKind::kSoftwareCrash, "blackbox");
    });
    try {
      write("DOOMED..........");
      std::fprintf(stderr, "blackbox_dump_writer: the armed crash never fired\n");
      return 1;
    } catch (const sim::NodeCrashed&) {
    }
    auto recovered = core::Perseas::recover(cluster, 2, {&server});
    cluster.flight().note_anomaly("roundtrip anomaly");

    cluster.flight().dump(argv[1]);
    for (const std::string& line : cluster.flight().narrative()) {
      std::printf("%s\n", line.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "blackbox_dump_writer: %s\n", e.what());
    return 1;
  }
  return 0;
}
