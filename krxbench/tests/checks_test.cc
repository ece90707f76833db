// Shows that each krx_bench output check can fail: every test first runs
// the check on the program's real output (it must hold), then feeds it one
// deliberately wrong input (it must fail).
//
//   cmake --build .bench_build --target krxbench_checks_test
//   ctest --test-dir .bench_build
#include <gtest/gtest.h>

#include <memory>

#include "krxbench/bench.h"
#include "krxbench/checks.h"
#include "src/bench_runner/bench_runner.h"
#include "src/plugin/pipeline.h"
#include "src/workload/harness.h"
#include "src/workload/vfs.h"

namespace krxbench {
namespace {

std::unique_ptr<krx::CompiledKernel> Build(const std::string& config) {
  auto kernel = krx::CompileKernel(krx::MakeBenchSourceFactory(kCorpusSeed)(),
                                   VerifiedBuildOptions(config, 7));
  EXPECT_TRUE(kernel.ok()) << kernel.status().message();
  return std::make_unique<krx::CompiledKernel>(std::move(*kernel));
}

std::unique_ptr<krx::Cpu> MakeCpu(krx::CompiledKernel& kernel) {
  krx::CpuOptions copts;
  copts.mpx_enabled = kernel.config.mpx;
  return std::make_unique<krx::Cpu>(kernel.image.get(), krx::CostModel(), copts);
}

std::vector<RowOutcome> RunRows(krx::Cpu& cpu, const std::vector<krx::BenchTask>& rows,
                                const krx::WorkloadBuffers& buffers) {
  std::vector<RowOutcome> out;
  for (const krx::BenchTask& row : rows) {
    out.push_back(RunRow(cpu, row.spec, buffers, krx::RunOptions{}));
  }
  return out;
}

TEST(Checks, FlippedPayloadByteFailsThePayloadCheck) {
  auto kernel = Build("sfi-o4");
  auto cpu = MakeCpu(*kernel);
  auto buffers = krx::SetUpWorkloadBuffers(*kernel->image, krx::WorkloadKind::kIpc, 3);
  ASSERT_TRUE(buffers.ok());
  std::string error;
  const std::vector<uint8_t> sent = PeekGuest(*kernel->image, buffers->ipc_src, 512, &error);
  std::vector<uint8_t> piped = PipeRoundTrip(*cpu, buffers->ipc_src, buffers->ipc_dst, 64, &error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(CheckPayload("pipe", sent, piped), "");
  piped[77] ^= 0x10;
  EXPECT_NE(CheckPayload("pipe", sent, piped), "");

  std::vector<uint8_t> sock = SockRoundTrip(*cpu, buffers->ipc_src, buffers->ipc_dst, 16, &error);
  ASSERT_EQ(error, "");
  const std::vector<uint8_t> sent16(sent.begin(), sent.begin() + 128);
  EXPECT_EQ(CheckPayload("socket", sent16, sock), "");
  sock[0] ^= 0x01;
  EXPECT_NE(CheckPayload("socket", sent16, sock), "");
}

TEST(Checks, PokedTextByteFailsTheVanillaComparison) {
  auto vanilla = Build("vanilla");
  auto prot = Build("sfi-o4");
  std::vector<krx::BenchTask> rows = ExecRows();
  rows.resize(4);  // LMBench rows: read-only ops, so re-running is exact
  auto vcpu = MakeCpu(*vanilla);
  auto pcpu = MakeCpu(*prot);
  auto vbuf = krx::SetUpWorkloadBuffers(*vanilla->image, krx::WorkloadKind::kLmbench, 5);
  auto pbuf = krx::SetUpWorkloadBuffers(*prot->image, krx::WorkloadKind::kLmbench, 5);
  ASSERT_TRUE(vbuf.ok() && pbuf.ok());
  const std::vector<RowOutcome> reference = RunRows(*vcpu, rows, *vbuf);
  ASSERT_EQ(CompareWithVanilla("sfi-o4", rows, reference, RunRows(*pcpu, rows, *pbuf)), "");

  // Find one text byte of the first row's op whose flip still returns
  // cleanly but changes rax; leave that byte poked.
  const krx::Symbol& op =
      prot->image->symbols().at(prot->image->symbols().Find(rows[0].spec.op_symbol));
  bool poked = false;
  for (uint64_t off = 0; off < op.size && !poked; ++off) {
    uint8_t byte = 0;
    ASSERT_TRUE(prot->image->PeekBytes(op.address + off, &byte, 1).ok());
    const uint8_t flipped = byte ^ 0x01;
    ASSERT_TRUE(prot->image->PokeBytes(op.address + off, &flipped, 1).ok());
    const RowOutcome o =
        RunRow(*pcpu, rows[0].spec, *pbuf, krx::RunOptions{.max_steps = 200'000});
    if (o.error.empty() && o.rax_fold != reference[0].rax_fold) {
      poked = true;
    } else {
      ASSERT_TRUE(prot->image->PokeBytes(op.address + off, &byte, 1).ok());
    }
  }
  ASSERT_TRUE(poked) << "no single-bit text poke changed " << rows[0].spec.op_symbol;
  EXPECT_NE(CompareWithVanilla("sfi-o4", rows, reference, RunRows(*pcpu, rows, *pbuf)), "");
}

TEST(Checks, WrongExpectedVfsContentFailsTheVfsCheck) {
  auto kernel = Build("sfi+x");
  auto cpu = MakeCpu(*kernel);
  auto buf = kernel->image->AllocDataPages(1);
  ASSERT_TRUE(buf.ok());
  for (const krx::VfsFile& file : krx::DefaultVfsImage()) {
    std::string error;
    const std::vector<uint8_t> read =
        ReadVfsFile(*cpu, *buf, file.path, file.content.size(), &error);
    ASSERT_EQ(error, "");
    EXPECT_EQ(CheckVfsRead(file.path, file.content, read), "");
    std::string wrong = file.content;
    wrong[wrong.size() / 2] ^= 0x20;
    EXPECT_NE(CheckVfsRead(file.path, wrong, read), "");
  }
}

TEST(Checks, EngineCountersMustAgree) {
  auto kernel = Build("mpx-o4");
  std::vector<krx::BenchTask> rows = ExecRows();
  rows.resize(3);
  auto cpu = MakeCpu(*kernel);
  auto ss_cpu = MakeCpu(*kernel);
  auto buf = krx::SetUpWorkloadBuffers(*kernel->image, krx::WorkloadKind::kLmbench, 9);
  ASSERT_TRUE(buf.ok());
  const std::vector<RowOutcome> cached = RunRows(*cpu, rows, *buf);
  std::vector<RowOutcome> stepped;
  for (const krx::BenchTask& row : rows) {
    stepped.push_back(
        RunRow(*ss_cpu, row.spec, *buf, krx::RunOptions{.engine = krx::ExecEngine::kSingleStep}));
  }
  EXPECT_EQ(CompareEngines("mpx-o4", rows, cached, stepped), "");
  stepped[1].instructions += 1;
  EXPECT_NE(CompareEngines("mpx-o4", rows, cached, stepped), "");
}

}  // namespace
}  // namespace krxbench
