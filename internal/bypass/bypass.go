// Package bypass implements the software-level horizontal cache-bypassing
// optimization of Section 4.2(D): the Opt_Num_Warps prediction model of
// Eq. (1), built from CUDAAdvisor's reuse-distance and memory-divergence
// outputs, and the exhaustive "oracle" search it is compared against
// (the pre-execution sampling approach of Li et al. [31]).
package bypass

import (
	"fmt"
	"math"

	"cudaadvisor/internal/analysis"
	"cudaadvisor/internal/gpu"
	"cudaadvisor/internal/runner"
)

// ModelInputs are the terms of Eq. (1):
//
//	Opt_Num_Warps = floor( L1_Cache_Size /
//	    (R.D. * Cacheline_Size * M.D. * #CTAs/SM) )
type ModelInputs struct {
	L1Bytes       int     // L1_Cache_Size
	LineSize      int     // Cacheline_Size
	ReuseDistance float64 // R.D.: average finite reuse distance (line-based)
	MemDivergence float64 // M.D.: average unique lines per warp instruction
	CTAsPerSM     int     // #CTAs/SM (resident CTAs)
	WarpsPerCTA   int     // clamp ceiling
}

// PartialFitThreshold is the smallest Eq. (1) quotient at which limiting
// L1 to a single warp still pays: below it, not even a substantial part
// of one warp's estimated working set fits, so restricting the cache
// would sacrifice locality it cannot protect and the model recommends no
// bypassing instead. Calibrated on the simulator's oracle sweeps (the
// paper calibrates against real-hardware sampling runs).
const PartialFitThreshold = 0.35

// OptimalWarps evaluates Eq. (1) and clamps the result to
// [1, WarpsPerCTA]. A result equal to WarpsPerCTA means "no bypassing"
// (either the whole CTA's working set fits, or — below
// PartialFitThreshold — nothing useful would fit anyway). The averages
// are used as-is, conservatively, as in the paper.
func OptimalWarps(in ModelInputs) int {
	if in.WarpsPerCTA < 1 {
		return 1
	}
	denom := in.ReuseDistance * float64(in.LineSize) * in.MemDivergence * float64(in.CTAsPerSM)
	if denom <= 0 {
		// Streaming application (no finite reuse): caching cannot help,
		// but it cannot thrash either; leave all warps on L1.
		return in.WarpsPerCTA
	}
	q := float64(in.L1Bytes) / denom
	if q < PartialFitThreshold {
		return in.WarpsPerCTA
	}
	k := int(math.Floor(q))
	if k < 1 {
		k = 1
	}
	if k > in.WarpsPerCTA {
		k = in.WarpsPerCTA
	}
	return k
}

// StreamingThreshold is the no-reuse fraction above which an application
// counts as streaming: its accesses are never reused, so the L1 cannot be
// thrashed into losing anything and bypassing is predicted off. This is
// the paper's own reading of its model ("BFS and Hotspot are quite
// insensitive ... which match their streaming features discussed in
// Section 4.2-(A)").
const StreamingThreshold = 0.85

// PredictFromProfiles assembles the model inputs from the analyzer's
// outputs for one application on one architecture configuration: rdLine
// is the cache-line-based reuse profile (the R.D. term), rdElem the
// element-based profile (whose no-reuse share identifies streaming
// applications), and md the divergence profile at the same line size.
func PredictFromProfiles(cfg gpu.ArchConfig, rdLine, rdElem *analysis.ReuseResult, md *analysis.MemDivResult, warpsPerCTA, ctasPerSM int) int {
	if rdElem.InfiniteFraction() > StreamingThreshold {
		return warpsPerCTA // streaming: leave every warp on L1
	}
	return OptimalWarps(ModelInputs{
		L1Bytes:  cfg.L1Bytes,
		LineSize: cfg.L1LineSize,
		// The plain average, outliers included — the paper's own
		// "rather conservative" estimator choice. (The mean over distances
		// up to the last histogram bound is the alternative the paper
		// mentions; on small-line architectures it under-estimates R.D. by
		// discarding the long tail.)
		ReuseDistance: rdLine.MeanFinite(),
		MemDivergence: md.Degree(),
		CTAsPerSM:     ctasPerSM,
		WarpsPerCTA:   warpsPerCTA,
	})
}

// ResidentCTAs returns the number of CTAs concurrently resident on one SM
// for a launch of nCTAs CTAs of warpsPerCTA warps (the #CTAs/SM term).
func ResidentCTAs(cfg gpu.ArchConfig, warpsPerCTA, nCTAs int) int {
	occ := cfg.MaxCTAsPerSM
	if warpsPerCTA > 0 {
		if byWarps := cfg.MaxWarpsPerSM / warpsPerCTA; byWarps < occ {
			occ = byWarps
		}
	}
	if occ < 1 {
		occ = 1
	}
	perSM := (nCTAs + cfg.SMs - 1) / cfg.SMs
	if perSM < occ {
		occ = perSM
	}
	if occ < 1 {
		occ = 1
	}
	return occ
}

// SweepPoint is one configuration in an oracle sweep.
type SweepPoint struct {
	L1Warps int // warps per CTA allowed to use L1; WarpsPerCTA = no bypassing
	Cycles  int64
}

// Runner executes the application end-to-end with the given number of
// L1-eligible warps per CTA and returns the modeled kernel cycles. Under
// a bound (0 = none) it may stop once the cycles pass it, and then
// returns bound+1, a lower bound on them.
type Runner func(l1Warps int, bound int64) (int64, error)

// Comparison is the three-way result of Figures 6 and 7 for one
// application on one architecture: baseline (no bypassing), oracle, and
// the Eq. (1) prediction, all in modeled cycles.
type Comparison struct {
	App     string
	L1Bytes int

	BaselineCycles int64
	OracleCycles   int64
	OracleWarps    int
	PredictCycles  int64
	PredictWarps   int
}

// OracleNorm returns oracle time normalized to baseline.
func (c Comparison) OracleNorm() float64 {
	return float64(c.OracleCycles) / float64(c.BaselineCycles)
}

// PredictNorm returns predicted-configuration time normalized to baseline.
func (c Comparison) PredictNorm() float64 {
	return float64(c.PredictCycles) / float64(c.BaselineCycles)
}

// Compare runs the full three-way comparison given the baseline, the
// cycles of the caller's run at k = warpsPerCTA (no bypassing). The other
// sweep points k = 1..warpsPerCTA-1 are independent end-to-end runs, so
// they fan out on the pool (nil = serial) and are reduced in k order,
// ties to the lowest k. The search is branch and bound: every point but
// the prediction runs under the baseline as its bound, and one that
// passes it stops. Its cycles are then above the baseline, so it can be
// neither the oracle nor tie with it, and the result is the exhaustive
// search's. The bound is the baseline, not the best point so
// far, so which points stop depends neither on completion order nor on
// the pool. run must be safe for concurrent use when pool is non-nil.
func Compare(app string, cfg gpu.ArchConfig, baseline int64, warpsPerCTA, predictWarps int, pool *runner.Pool, run Runner) (Comparison, error) {
	c := Comparison{App: app, L1Bytes: cfg.L1Bytes, BaselineCycles: baseline, PredictWarps: predictWarps}
	if warpsPerCTA < 1 {
		return c, fmt.Errorf("bypass: warpsPerCTA = %d", warpsPerCTA)
	}
	if predictWarps < 1 || predictWarps > warpsPerCTA {
		return c, fmt.Errorf("bypass: predictWarps = %d outside [1, %d]", predictWarps, warpsPerCTA)
	}
	sweep, err := runner.Map(pool, warpsPerCTA-1, func(i int) (SweepPoint, error) {
		k, bound := i+1, baseline
		if k == predictWarps {
			bound = 0 // the figure prints the prediction's time
		}
		cycles, err := run(k, bound)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("bypass: sweep run k=%d: %w", k, err)
		}
		return SweepPoint{L1Warps: k, Cycles: cycles}, nil
	})
	if err != nil {
		return c, err
	}
	sweep = append(sweep, SweepPoint{L1Warps: warpsPerCTA, Cycles: baseline})
	// Ordered reduction: scan in k order so ties resolve to the lowest k,
	// exactly as the serial search (the tests' Oracle) does.
	best := sweep[0]
	for _, pt := range sweep[1:] {
		if pt.Cycles < best.Cycles {
			best = pt
		}
	}
	c.OracleCycles, c.OracleWarps = best.Cycles, best.L1Warps
	c.PredictCycles = sweep[predictWarps-1].Cycles
	return c, nil
}
