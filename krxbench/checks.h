// Output checks of the krx_bench workloads, and the guest probes that feed
// them. Every check returns an empty string when it holds, else a message
// naming what differed. The checks compare against properties the method
// must have (protection never changes results, only adds work) or against
// values computed apart from the program (the VFS image description, the
// payload the host wrote); tests/checks_test.cc feeds each a wrong input.
#ifndef KRXBENCH_CHECKS_H_
#define KRXBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/bench_runner/bench_runner.h"
#include "src/cpu/cpu.h"
#include "src/fleet/tenant.h"

namespace krxbench {

// The bench matrix rows of MakeBenchMatrix for one image: every LMBench
// row, the VFS walk, the IPC round and every Phoronix mix, named without a
// config suffix (the config is the image's).
std::vector<krx::BenchTask> ExecRows();

// What one row run produced on one image.
struct RowOutcome {
  uint64_t rax_fold = 0;
  uint64_t instructions = 0;
  uint64_t deci_cycles = 0;
  std::string error;  // non-empty when the guest run failed
};

RowOutcome RunRow(krx::Cpu& cpu, const krx::TenantSpec& spec,
                  const krx::WorkloadBuffers& buffers, const krx::RunOptions& run);

// A protected config must return vanilla's rax fold on every row and may
// not retire fewer guest instructions or cost fewer simulated cycles.
std::string CompareWithVanilla(const std::string& config, const std::vector<krx::BenchTask>& rows,
                               const std::vector<RowOutcome>& vanilla,
                               const std::vector<RowOutcome>& outcome);

// Two engines must agree on every counter of every row.
std::string CompareEngines(const std::string& what, const std::vector<krx::BenchTask>& rows,
                           const std::vector<RowOutcome>& reference,
                           const std::vector<RowOutcome>& outcome);

// Bytes the guest handed back must equal the bytes the host sent.
std::string CheckPayload(const std::string& what, const std::vector<uint8_t>& sent,
                         const std::vector<uint8_t>& received);

// Bytes the guest VFS read from `path` must equal the file's content in the
// VFS image description (the first expected.size() bytes of the read).
std::string CheckVfsRead(const std::string& path, const std::string& expected,
                         const std::vector<uint8_t>& read);

// Guest probes. Each runs on `cpu` and uses the one-page buffers given.

// vfs_open + vfs_read(ceil(size/8) qwords) + vfs_close of `path`; returns
// the bytes read, or an error message in *error.
std::vector<uint8_t> ReadVfsFile(krx::Cpu& cpu, uint64_t buf, const std::string& path,
                                 uint64_t size, std::string* error);

// Writes `qwords` qwords from `src` into the pipe and reads them back into
// `dst`; returns what arrived in dst.
std::vector<uint8_t> PipeRoundTrip(krx::Cpu& cpu, uint64_t src, uint64_t dst, uint64_t qwords,
                                   std::string* error);

// sock_send of `qwords` qwords from `src`, sock_recv into `dst`; sock_recv
// must return the sent qword count. Returns what arrived in dst.
std::vector<uint8_t> SockRoundTrip(krx::Cpu& cpu, uint64_t src, uint64_t dst, uint64_t qwords,
                                   std::string* error);

std::vector<uint8_t> PeekGuest(const krx::KernelImage& image, uint64_t vaddr, uint64_t len,
                               std::string* error);

// Addresses of every defined function symbol, in symbol-table order.
std::vector<uint64_t> FunctionAddresses(const krx::KernelImage& image);

// Size of the linked .text section in bytes (0 if absent).
uint64_t TextBytes(const krx::KernelImage& image);

}  // namespace krxbench

#endif  // KRXBENCH_CHECKS_H_
