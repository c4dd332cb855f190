/// \file backend_swsc.hpp
/// \brief ScBackend over the conventional CMOS SC pipeline: software SNGs
///        (LFSR, Sobol or SFMT + comparator), exact serial SC gates,
///        counter S-to-B (the paper's Table III baseline design).
///
/// Randomness-epoch semantics mirror IMSNG's correlation control
/// (Sec. II-B): each fresh-epoch encode instantiates a new random source
/// (new LFSR seed / Sobol dimension+phase / SFMT seed), and every stream of
/// a batch is generated from that source *restarted*, so streams within an
/// epoch are maximally correlated (SCC = +1) exactly like streams sharing
/// TRNG planes — the precondition XOR subtraction and CORDIV need.
///
/// Constants (`encodeProb` / `halfStream`) do NOT burn randomness epochs:
/// they are served from a `SwScConstantPool` — independently derived
/// streams cached for the lifetime of the backend and rotated per epoch so
/// repeated requests within one epoch stay mutually independent.  The
/// epoch counter therefore advances only on data encodes.
///
/// Cost accounting: `opCount()` counts serial SC op passes (each N bit
/// cycles in hardware); conversions and decodes are charged by the system
/// model, not here.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "sc/bulk_sng.hpp"
#include "sc/rng.hpp"
#include "sc/simd_caps.hpp"

namespace aimsc::core {

/// SNG randomness family of the software-SC backends.  `Lfsr` and `Sobol`
/// are the paper's Table III CMOS baselines (they map onto
/// `energy::CmosSng` for cost accounting); `Sfmt` is the SIMD-native
/// SFMT-style source of sc/sfmt.hpp, whose 128-bit recurrence vectorizes
/// across epochs.
enum class SwScSng { Lfsr, Sobol, Sfmt };

/// Human-readable family name ("LFSR" / "Sobol" / "SFMT").
const char* swScSngName(SwScSng sng);

/// Knobs of the software-SC backend.
struct SwScConfig {
  std::size_t streamLength = 256;  ///< N (bits per stream)
  SwScSng sng = SwScSng::Lfsr;     ///< SNG randomness family
  std::uint64_t seed = 0x5eed;     ///< master seed
  /// Instruction-set width; `Portable` forces the uint64 fallback
  /// (testing, non-x86 hosts).  Every width emits the same bits.
  sc::SimdMode simd = sc::SimdMode::Auto;
};

// --- seed derivation ----------------------------------------------------------
// Public so the per-bit test oracle derives the same epochs independently.

/// LFSR seed for randomness epoch \p epoch (golden-ratio stride over the
/// 254 usable nonzero seeds).
std::uint32_t swScLfsrSeedForEpoch(std::uint64_t seed, std::uint64_t epoch);

/// Sobol parameters for a randomness epoch: a fresh dimension per epoch
/// and, once the dimensions wrap, a phase offset that keeps reused
/// dimensions from replaying the same sequence.
struct SwScSobolEpoch {
  int dimension;
  std::uint64_t skip;
};
SwScSobolEpoch swScSobolForEpoch(std::uint64_t seed, std::uint64_t epoch);

/// SFMT seed for randomness epoch \p epoch: the golden-ratio stride mixed
/// through a splitmix64 finalizer, so every epoch gets a well-spread 32-bit
/// seed (the SFMT initializer accepts any value, zero included).
std::uint32_t swScSfmtSeedForEpoch(std::uint64_t seed, std::uint64_t epoch);

/// Comparator threshold of an 8-bit pixel value, quantized exactly like
/// the per-bit path (`generateSbsFromProb(v/255, 8, n)`).
std::uint32_t swScPixelThreshold(std::uint8_t v);

/// Random source for the \p ordinal-th independent constant stream of
/// comparator threshold \p threshold (see `SwScConstantPool`).  Constants
/// draw from a seed space disjoint from the epoch derivation above.
std::unique_ptr<sc::RandomSource> swScConstantSource(const SwScConfig& config,
                                                     std::uint32_t threshold,
                                                     std::uint32_t ordinal);

/// Cache of constant streams (selects, coefficients, P=0.5 halves) of the
/// SW-SC backend.
///
/// Streams are generated once per (threshold, ordinal) pair and reused for
/// the backend's lifetime — the hardware analogy is a bank of dedicated
/// select SNGs that free-run beside the data path.  Within one randomness
/// epoch, successive requests for the same threshold return *successive*
/// pool entries (kernels like the smoothing MUX tree need seven mutually
/// independent halves per row); `onNewEpoch` rewinds the rotation so the
/// next row reuses the same bank.
class SwScConstantPool {
 public:
  explicit SwScConstantPool(const SwScConfig& config) : config_(config) {}

  /// Copies the next pooled stream encoding probability \p p for the
  /// current epoch into \p dst (buffer reused) — allocation-free once the
  /// bank is warm.
  void getInto(sc::Bitstream& dst, double p);

  /// Rewinds the per-epoch rotation (streams themselves are kept).
  void onNewEpoch();

 private:
  /// One comparator threshold's bank: the cached streams plus an
  /// epoch-stamped rotation cursor (stamping instead of clearing keeps the
  /// per-epoch rewind free of node churn — the hot path rolls epochs once
  /// per row).
  struct Bank {
    std::vector<sc::Bitstream> streams;
    std::size_t used = 0;
    std::uint64_t stamp = 0;
  };

  const sc::Bitstream& next(double p);

  SwScConfig config_;
  std::map<std::uint32_t, Bank> pool_;
  std::uint64_t epochStamp_ = 1;
};

/// Software-SC execution engine (the Table III/IV "CMOS SC" baseline) for
/// all four SW-SC designs: the SNG comparator construction executed with
/// the batched SNG layer of sc/bulk_sng.hpp, the exact-MUX CMOS gate set
/// over packed `Bitstream` words, pooled constants, the counter decode and
/// serial-pass accounting.
///
///  * stage-1 encode: one `RandomPlanes` comparator pass per pixel
///    (64 bits per word op, 32 per AVX2 compare, 64 per single AVX-512BW
///    `vpcmpub`) — bit i is the comparator predicate R_i < X of the epoch's
///    restarted source, exactly as `sc::generateSbs` builds it;
///  * LFSR epochs are *prefetched in blocks*: one bulk pass advances 32
///    (64 on AVX-512 hosts) future epochs' registers in lock-step
///    (stream-major state, the MT19937-SIMD layout idiom);
///  * SFMT epochs prefetch through `BulkSfmt`: 16 generators whose 128-bit
///    recurrences run fused two (AVX2) or four (AVX-512) per register;
///  * Sobol epochs draw their N comparator bytes once per epoch;
///  * CORDIV is the word-level scan proven equal to the serial flip-flop
///    (`sc::cordivDivide`, the reference the tests compare against).
///
/// All width paths are runtime-dispatched through `sc::resolveSimd` —
/// `SimdMode::Auto` honours the `AIMSC_SIMD` override, explicit requests
/// clamp down to what the host supports — and every path produces the
/// same bits; width (and the prefetch depth it implies) is a pure perf
/// knob, which is why it is never carried on the shard wire protocol.
class SwScBackend final : public ScBackend {
 public:
  /// Engine for \p config; `name()` is the design of `config.sng`.
  explicit SwScBackend(const SwScConfig& config);
  /// Same engine labelled as \p design: `SwScSimd` is the `SwScLfsr`
  /// design point under its own wire-stable selector.
  SwScBackend(const SwScConfig& config, DesignKind design);

  const char* name() const override;

  /// Destination-passing stage-1 forms: the packed comparator writes each
  /// pixel's stream into its warm arena slot (no per-pixel allocation).
  void encodePixelsInto(std::span<const std::uint8_t> values,
                        std::span<ScValue> out) override;
  void encodePixelsCorrelatedInto(std::span<const std::uint8_t> values,
                                  std::span<ScValue> out) override;

  // The packed-word gate set writes its result words straight into the
  // destination buffer (allocation-free on warm destinations).
  void encodeProbInto(ScValue& dst, double p) override;
  void halfStreamInto(ScValue& dst) override;
  void multiplyInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void scaledAddInto(ScValue& dst, const ScValue& x, const ScValue& y,
                     const ScValue& half) override;
  void addApproxInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void absSubInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void minimumInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void maximumInto(ScValue& dst, const ScValue& x, const ScValue& y) override;
  void majMuxInto(ScValue& dst, const ScValue& x, const ScValue& y,
                  const ScValue& sel) override;
  void majMux4Into(ScValue& dst, const ScValue& i11, const ScValue& i12,
                   const ScValue& i21, const ScValue& i22, const ScValue& sx,
                   const ScValue& sy) override;
  void divideInto(ScValue& dst, const ScValue& num, const ScValue& den) override;
  void decodePixelsInto(std::span<ScValue> values,
                        std::span<std::uint8_t> out) override;

  std::uint64_t opCount() const override { return opPasses_; }

 protected:
  void doBernsteinSelectInto(ScValue& dst, std::span<const ScValue> xCopies,
                             std::span<const ScValue> coeffSelects) override;

 private:
  /// Starts a fresh randomness epoch, rebuilds the comparator planes and
  /// rewinds the constant pool.
  void newEpoch();
  /// Refills the epoch prefetch block (LFSR or SFMT family) so lane 0
  /// corresponds to \p epoch.
  void refillBlock(std::uint64_t epoch);

  SwScConfig config_;
  DesignKind design_;      ///< labels name()
  sc::SimdMode resolved_;  ///< resolveSimd(config_.simd): prefetch depth
  SwScConstantPool constants_;
  std::uint64_t opPasses_ = 0;
  std::uint64_t epoch_ = 0;

  sc::RandomPlanes planes_;  ///< current epoch's packed comparator state

  /// Bulk epoch prefetch (LFSR and SFMT families): comparator sequences
  /// for epochs [blockBase_, blockBase_ + blockLanes_), stream-major
  /// (lane k = epoch blockBase_ + k), produced by one bulk-generator pass.
  /// blockLanes_ is 32 LFSR lanes (64 when the resolved width is AVX-512 —
  /// one 512-bit register per SWAR word pass) or BulkSfmt::kLanes.
  std::vector<std::uint8_t> block_;
  std::size_t blockLanes_ = 0;
  std::uint64_t blockBase_ = 0;  ///< 0 = block not yet generated

  std::vector<std::uint8_t> sobolBytes_;  ///< scratch for Sobol epochs

  sc::Bitstream tmpTop_;  ///< MUX-tree stage scratch (majMux4Into)
  sc::Bitstream tmpBottom_;
  // Borrowed-pointer staging for the per-pixel Bernstein network.
  std::vector<const sc::Bitstream*> copyPtrScratch_;
  std::vector<const sc::Bitstream*> coeffPtrScratch_;
};

}  // namespace aimsc::core
