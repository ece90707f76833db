#include "krxbench/checks.h"

#include <cstdio>

#include "src/workload/vfs.h"

namespace krxbench {

std::vector<krx::BenchTask> ExecRows() {
  std::vector<krx::BenchTask> rows =
      krx::MakeBenchMatrix({""}, /*lmbench_rows=*/0, /*repeat=*/1, /*with_phoronix=*/true);
  for (krx::BenchTask& row : rows) {
    row.name.pop_back();  // the "@" before the empty config name
  }
  return rows;
}

RowOutcome RunRow(krx::Cpu& cpu, const krx::TenantSpec& spec,
                  const krx::WorkloadBuffers& buffers, const krx::RunOptions& run) {
  krx::WorkloadCounters counters;
  const krx::Status status = krx::RunWorkloadOnce(cpu, spec, buffers, run, &counters);
  RowOutcome out;
  out.rax_fold = counters.rax_checksum;
  out.instructions = counters.instructions;
  out.deci_cycles = counters.deci_cycles;
  if (!status.ok()) {
    out.error = status.message();
  }
  return out;
}

std::string CompareWithVanilla(const std::string& config, const std::vector<krx::BenchTask>& rows,
                               const std::vector<RowOutcome>& vanilla,
                               const std::vector<RowOutcome>& outcome) {
  if (vanilla.size() != rows.size() || outcome.size() != rows.size()) {
    return config + ": row count differs from the matrix";
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowOutcome& v = vanilla[i];
    const RowOutcome& o = outcome[i];
    const std::string where = rows[i].name + "@" + config;
    if (!o.error.empty()) {
      return where + ": " + o.error;
    }
    if (o.rax_fold != v.rax_fold) {
      return where + ": rax fold differs from vanilla's";
    }
    if (o.instructions < v.instructions) {
      return where + ": retired fewer guest instructions than vanilla";
    }
    if (o.deci_cycles < v.deci_cycles) {
      return where + ": cost fewer simulated cycles than vanilla";
    }
  }
  return "";
}

std::string CompareEngines(const std::string& what, const std::vector<krx::BenchTask>& rows,
                           const std::vector<RowOutcome>& reference,
                           const std::vector<RowOutcome>& outcome) {
  if (reference.size() != rows.size() || outcome.size() != rows.size()) {
    return what + ": row count differs from the matrix";
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowOutcome& r = reference[i];
    const RowOutcome& o = outcome[i];
    if (!o.error.empty() || o.rax_fold != r.rax_fold || o.instructions != r.instructions ||
        o.deci_cycles != r.deci_cycles) {
      return what + ": " + rows[i].name + " counters differ between engines";
    }
  }
  return "";
}

std::string CheckPayload(const std::string& what, const std::vector<uint8_t>& sent,
                         const std::vector<uint8_t>& received) {
  if (sent.size() != received.size()) {
    return what + ": received " + std::to_string(received.size()) + " bytes, sent " +
           std::to_string(sent.size());
  }
  for (size_t i = 0; i < sent.size(); ++i) {
    if (sent[i] != received[i]) {
      return what + ": payload byte " + std::to_string(i) + " differs";
    }
  }
  return "";
}

std::string CheckVfsRead(const std::string& path, const std::string& expected,
                         const std::vector<uint8_t>& read) {
  if (read.size() < expected.size()) {
    return "vfs " + path + ": read " + std::to_string(read.size()) + " bytes, expected " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (read[i] != static_cast<uint8_t>(expected[i])) {
      return "vfs " + path + ": byte " + std::to_string(i) + " differs from the image";
    }
  }
  return "";
}

std::vector<uint8_t> PeekGuest(const krx::KernelImage& image, uint64_t vaddr, uint64_t len,
                               std::string* error) {
  std::vector<uint8_t> out(len);
  const krx::Status s = image.PeekBytes(vaddr, out.data(), len);
  if (!s.ok()) {
    *error = s.message();
    out.clear();
  }
  return out;
}

namespace {

// One guest call that must return cleanly; returns its rax.
uint64_t Call(krx::Cpu& cpu, const char* symbol, const std::vector<uint64_t>& args,
              std::string* error) {
  const krx::RunResult r = cpu.CallFunction(symbol, args);
  if (r.reason != krx::StopReason::kReturned && error->empty()) {
    *error = std::string(symbol) + " did not return cleanly";
  }
  return r.rax;
}

}  // namespace

std::vector<uint8_t> ReadVfsFile(krx::Cpu& cpu, uint64_t buf, const std::string& path,
                                 uint64_t size, std::string* error) {
  const krx::VfsPathHashes h = krx::HashPath(path);
  const uint64_t fd = Call(cpu, "vfs_open", {h.h1, h.h2, h.h3}, error);
  if (!error->empty() || static_cast<int64_t>(fd) < 0) {
    *error = "vfs_open failed for " + path;
    return {};
  }
  const uint64_t qwords = (size + 7) / 8;
  const uint64_t got = Call(cpu, "vfs_read", {fd, buf, qwords}, error);
  Call(cpu, "vfs_close", {fd}, error);
  if (!error->empty() || got != qwords) {
    *error = "vfs_read failed for " + path;
    return {};
  }
  return PeekGuest(*cpu.image(), buf, qwords * 8, error);
}

std::vector<uint8_t> PipeRoundTrip(krx::Cpu& cpu, uint64_t src, uint64_t dst, uint64_t qwords,
                                   std::string* error) {
  const uint64_t wrote = Call(cpu, "pipe_write", {src, qwords}, error);
  const uint64_t read = Call(cpu, "pipe_read", {dst, qwords}, error);
  if (error->empty() && (wrote != qwords || read != qwords)) {
    *error = "pipe moved " + std::to_string(wrote) + "/" + std::to_string(read) + " of " +
             std::to_string(qwords) + " qwords";
  }
  return error->empty() ? PeekGuest(*cpu.image(), dst, qwords * 8, error)
                        : std::vector<uint8_t>();
}

std::vector<uint8_t> SockRoundTrip(krx::Cpu& cpu, uint64_t src, uint64_t dst, uint64_t qwords,
                                   std::string* error) {
  const uint64_t sent = Call(cpu, "sock_send", {src, qwords}, error);
  const uint64_t received = Call(cpu, "sock_recv", {dst}, error);
  if (error->empty() && (sent != qwords || received != qwords)) {
    *error = "sock_recv returned " + std::to_string(static_cast<int64_t>(received)) +
             " for " + std::to_string(qwords) + " sent qwords";
  }
  return error->empty() ? PeekGuest(*cpu.image(), dst, qwords * 8, error)
                        : std::vector<uint8_t>();
}

std::vector<uint64_t> FunctionAddresses(const krx::KernelImage& image) {
  std::vector<uint64_t> out;
  const krx::SymbolTable& symbols = image.symbols();
  for (size_t i = 0; i < symbols.size(); ++i) {
    const krx::Symbol& s = symbols.at(static_cast<int32_t>(i));
    if (s.kind == krx::SymbolKind::kFunction && s.defined) {
      out.push_back(s.address);
    }
  }
  return out;
}

uint64_t TextBytes(const krx::KernelImage& image) {
  const krx::PlacedSection* text = image.FindSection(".text");
  return text == nullptr ? 0 : text->size;
}

}  // namespace krxbench
