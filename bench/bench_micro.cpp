/**
 * @file
 * Cross-cutting micro benchmarks for the library's hot paths: AES,
 * pad generation, line primitives, cache accesses, Start-Gap remap,
 * and end-to-end scheme write/read costs.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.hh"
#include "common/cache_line.hh"
#include "common/line_kernels.hh"
#include "common/rng.hh"
#include "crypto/aes.hh"
#include "crypto/aes_backend.hh"
#include "crypto/otp_engine.hh"
#include "enc/scheme_factory.hh"
#include "wear/start_gap.hh"

namespace
{

using namespace deuce;

/**
 * The AES benchmarks run once per backend Auto can pick on x86 plus
 * the scalar reference, so the tier-1 perf smoke can compare them; a
 * hardware capture on a host without that ISA skips with an error row
 * instead of silently benchmarking the fallback.
 */
bool
skipUnavailable(benchmark::State &state, AesBackendKind backend)
{
    if (backend == AesBackendKind::AesNi && !aesniAvailable()) {
        state.SkipWithError("AES-NI unavailable on this host");
        return true;
    }
    if (backend == AesBackendKind::Vaes && !vaesAvailable()) {
        state.SkipWithError("VAES/AVX-512 unavailable on this host");
        return true;
    }
    return false;
}

void
BM_AesEncryptBlock(benchmark::State &state, AesBackendKind backend)
{
    if (skipUnavailable(state, backend)) {
        return;
    }
    AesKey key{};
    Aes128 aes(key, backend);
    AesBlock block{};
    for (auto _ : state) {
        block = aes.encrypt(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK_CAPTURE(BM_AesEncryptBlock, scalar, AesBackendKind::Scalar);
BENCHMARK_CAPTURE(BM_AesEncryptBlock, aesni, AesBackendKind::AesNi);
BENCHMARK_CAPTURE(BM_AesEncryptBlock, vaes, AesBackendKind::Vaes);

void
BM_AesEncrypt4(benchmark::State &state, AesBackendKind backend)
{
    if (skipUnavailable(state, backend)) {
        return;
    }
    AesKey key{};
    Aes128 aes(key, backend);
    AesBlock in[4] = {};
    AesBlock out[4];
    for (unsigned b = 0; b < 4; ++b) {
        in[b][0] = static_cast<uint8_t>(b);
    }
    for (auto _ : state) {
        aes.encryptBlocks(in, out, 4);
        benchmark::DoNotOptimize(out);
        in[0][1] = out[0][0]; // serialise iterations
    }
    state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK_CAPTURE(BM_AesEncrypt4, scalar, AesBackendKind::Scalar);
BENCHMARK_CAPTURE(BM_AesEncrypt4, aesni, AesBackendKind::AesNi);
BENCHMARK_CAPTURE(BM_AesEncrypt4, vaes, AesBackendKind::Vaes);

void
BM_PadForLine(benchmark::State &state, AesBackendKind backend)
{
    if (skipUnavailable(state, backend)) {
        return;
    }
    AesKey key{};
    AesOtpEngine otp(key, backend);
    uint64_t ctr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(otp.padForLine(123, ctr++));
    }
    state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK_CAPTURE(BM_PadForLine, scalar, AesBackendKind::Scalar);
BENCHMARK_CAPTURE(BM_PadForLine, aesni, AesBackendKind::AesNi);
BENCHMARK_CAPTURE(BM_PadForLine, vaes, AesBackendKind::Vaes);

void
BM_LineXor(benchmark::State &state)
{
    Rng rng(1);
    CacheLine a, b;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        a.limb(i) = rng.next();
        b.limb(i) = rng.next();
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(a ^ b);
    }
}
BENCHMARK(BM_LineXor);

void
BM_LinePopcount(benchmark::State &state)
{
    Rng rng(2);
    CacheLine a;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        a.limb(i) = rng.next();
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.popcount());
    }
}
BENCHMARK(BM_LinePopcount);

/**
 * Like the AES captures: each line-kernel benchmark runs once per
 * backend, and a capture for an ISA the host lacks skips with an
 * error row instead of silently benchmarking the fallback.
 */
bool
skipUnavailable(benchmark::State &state, LineBackendKind backend)
{
    if (backend == LineBackendKind::Avx2 && !avx2Available()) {
        state.SkipWithError("AVX2 unavailable on this host");
        return true;
    }
    return false;
}

void
randomLine(Rng &rng, CacheLine &line)
{
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        line.limb(i) = rng.next();
    }
}

void
BM_LineXorPopcount(benchmark::State &state, LineBackendKind backend)
{
    if (skipUnavailable(state, backend)) {
        return;
    }
    const LineKernelOps &ops = *lineBackendOps(backend);
    Rng rng(5);
    CacheLine a, b;
    randomLine(rng, a);
    randomLine(rng, b);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops.xorPopcount(a, b));
    }
    state.SetBytesProcessed(state.iterations() * 2 * 64);
}
BENCHMARK_CAPTURE(BM_LineXorPopcount, scalar, LineBackendKind::Scalar);
BENCHMARK_CAPTURE(BM_LineXorPopcount, avx2, LineBackendKind::Avx2);

void
BM_LineDiffInto(benchmark::State &state, LineBackendKind backend)
{
    if (skipUnavailable(state, backend)) {
        return;
    }
    const LineKernelOps &ops = *lineBackendOps(backend);
    Rng rng(6);
    CacheLine a, b, diff;
    randomLine(rng, a);
    randomLine(rng, b);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops.diffInto(a, b, diff));
        benchmark::DoNotOptimize(diff);
    }
    state.SetBytesProcessed(state.iterations() * 2 * 64);
}
BENCHMARK_CAPTURE(BM_LineDiffInto, scalar, LineBackendKind::Scalar);
BENCHMARK_CAPTURE(BM_LineDiffInto, avx2, LineBackendKind::Avx2);

void
BM_LineWordDiffMask(benchmark::State &state, LineBackendKind backend)
{
    if (skipUnavailable(state, backend)) {
        return;
    }
    const LineKernelOps &ops = *lineBackendOps(backend);
    Rng rng(7);
    CacheLine a, b;
    randomLine(rng, a);
    b = a;
    b.setBit(37, !b.bit(37)); // sparse diff: the common write shape
    b.setBit(300, !b.bit(300));
    for (auto _ : state) {
        benchmark::DoNotOptimize(ops.wordDiffMask(a, b, 32));
    }
    state.SetBytesProcessed(state.iterations() * 2 * 64);
}
BENCHMARK_CAPTURE(BM_LineWordDiffMask, scalar, LineBackendKind::Scalar);
BENCHMARK_CAPTURE(BM_LineWordDiffMask, avx2, LineBackendKind::Avx2);

void
BM_LineRegionPopcounts(benchmark::State &state, LineBackendKind backend)
{
    if (skipUnavailable(state, backend)) {
        return;
    }
    const LineKernelOps &ops = *lineBackendOps(backend);
    Rng rng(8);
    CacheLine diff;
    randomLine(rng, diff);
    uint16_t counts[CacheLine::kBits];
    for (auto _ : state) {
        ops.regionPopcounts(diff, 128, counts); // FNW/write-slot shape
        benchmark::DoNotOptimize(counts);
    }
    state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK_CAPTURE(BM_LineRegionPopcounts, scalar,
                  LineBackendKind::Scalar);
BENCHMARK_CAPTURE(BM_LineRegionPopcounts, avx2, LineBackendKind::Avx2);

void
BM_CacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.capacityBytes = 1 << 20;
    cfg.ways = 16;
    SetAssocCache cache(cfg);
    Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.nextBounded(1 << 16), rng.nextBool(0.3)));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_StartGapRemap(benchmark::State &state)
{
    StartGap sg(1 << 20, 100);
    for (int i = 0; i < 12345; ++i) {
        sg.onWrite();
    }
    uint64_t la = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sg.remap(la));
        la = (la + 997) % (1 << 20);
    }
}
BENCHMARK(BM_StartGapRemap);

void
BM_SchemeRead(benchmark::State &state, const std::string &id)
{
    auto otp = makeAesOtpEngine(1);
    auto scheme = makeScheme(id, *otp);
    Rng rng(4);
    CacheLine plain;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        plain.limb(i) = rng.next();
    }
    StoredLineState st;
    scheme->install(1, plain, st);
    for (int i = 0; i < 3; ++i) {
        plain.setField(0, 16, rng.next() | 1);
        scheme->write(1, plain, st);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(scheme->read(1, st));
    }
}
BENCHMARK_CAPTURE(BM_SchemeRead, encr, std::string("encr"));
BENCHMARK_CAPTURE(BM_SchemeRead, deuce, std::string("deuce"));
BENCHMARK_CAPTURE(BM_SchemeRead, ble, std::string("ble"));
BENCHMARK_CAPTURE(BM_SchemeRead, vcc, std::string("vcc"));
BENCHMARK_CAPTURE(BM_SchemeRead, vcc_mlc, std::string("vcc-mlc"));

/**
 * The scheme's encode alone: writeWithPads() with its pads already
 * generated, replayed from the same state every iteration. Arg 0 is
 * a one-word rewrite mid-epoch; arg 1 the write that starts an epoch
 * (counter 31 -> 32), which re-encrypts every word.
 */
void
BM_SchemeWriteWithPads(benchmark::State &state, const std::string &id)
{
    auto otp = makeAesOtpEngine(1);
    auto scheme = makeScheme(id, *otp);
    Rng rng(4);
    CacheLine plain;
    for (unsigned i = 0; i < CacheLine::kLimbs; ++i) {
        plain.limb(i) = rng.next();
    }
    StoredLineState base;
    scheme->install(1, plain, base);
    const unsigned writes = state.range(0) ? 31 : 3;
    for (unsigned i = 0; i < writes; ++i) {
        plain.setField(0, 16, rng.next() | 1);
        scheme->write(1, plain, base);
    }
    plain.setField(16, 16, rng.next() | 1);

    std::vector<LinePadRequest> requests(4 * kMaxWritePadLines);
    const unsigned lines =
        scheme->planWritePads(1, base, requests.data());
    std::vector<AesBlock> blocks(4 * lines);
    scheme->generatePads(requests.data(), blocks.data(), 4 * lines);
    std::vector<CacheLine> pads(lines);
    assembleLinePads(blocks.data(), pads.data(), lines);
    for (auto _ : state) {
        StoredLineState st = base;
        benchmark::DoNotOptimize(
            scheme->writeWithPads(1, plain, st, pads.data()));
        benchmark::DoNotOptimize(st);
    }
}
BENCHMARK_CAPTURE(BM_SchemeWriteWithPads, deuce, std::string("deuce"))
    ->Arg(0)
    ->Arg(1);
BENCHMARK_CAPTURE(BM_SchemeWriteWithPads, vcc_mlc, std::string("vcc-mlc"))
    ->Arg(0)
    ->Arg(1);

} // namespace

BENCHMARK_MAIN();
