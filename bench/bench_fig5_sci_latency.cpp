// Figure 5: SCI remote-write latency as a function of data size (4..200
// bytes, first word mapping to the first word of an SCI buffer), plus the
// aligned-64-byte strategy the paper's sci_memcpy uses for sizes >= 32.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "netram/sci_link.hpp"
#include "sim/hardware_profile.hpp"

namespace {

using perseas::netram::SciLinkModel;
using perseas::netram::StreamHint;

void print_figure5() {
  perseas::bench::print_header(
      "Figure 5: SCI remote write latency vs data size (word offset 0)",
      "Papathanasiou & Markatos 1997, figure 5");
  const SciLinkModel link(perseas::sim::HardwareProfile::forth_1997().sci);
  std::printf("%8s %16s %16s %10s %10s\n", "bytes", "as-issued (us)", "aligned-64 (us)",
              "pkts-64B", "pkts-16B");
  for (std::uint64_t size = 4; size <= 200; size += 4) {
    const auto naive = link.store_burst(0, size);
    const auto aligned = link.aligned_store_burst(0, size);
    std::printf("%8llu %16.2f %16.2f %10u %10u\n", static_cast<unsigned long long>(size),
                perseas::sim::to_us(naive.total), perseas::sim::to_us(aligned.total),
                naive.full_packets, naive.partial_packets);
  }
  std::printf("\nanchors: 4 B = 2.5 us, <=64 B crossing a 16-byte boundary = 2.9 us,\n"
              "         128 B aligned = 3.7 us; whole 64-byte stores are lowest.\n");
}

}  // namespace

int main() {
  print_figure5();
}
