package dae

import (
	"errors"
	"fmt"

	"dae/internal/analysis"
	"dae/internal/fault"
	"dae/internal/ir"
	"dae/internal/passes"
)

// Strategy identifies how an access version was generated.
type Strategy int

// Strategies.
const (
	// StrategyNone means no access version could be generated; the task
	// runs coupled (CAE).
	StrategyNone Strategy = iota
	// StrategyAffine is the polyhedral path of §5.1.
	StrategyAffine
	// StrategySkeleton is the optimized task-skeleton path of §5.2.
	StrategySkeleton
)

// String returns a readable name.
func (s Strategy) String() string {
	switch s {
	case StrategyAffine:
		return "affine"
	case StrategySkeleton:
		return "skeleton"
	}
	return "none"
}

// Options control access-version generation. The zero value enables the
// paper's default configuration via Defaults.
type Options struct {
	// ParamHints provides representative values for integer task parameters,
	// used to evaluate the NConvUn ≤ NOrig profitability test and numeric
	// nest-merge checks (the paper evaluates Ehrhart polynomials; we count
	// at instantiated parameters).
	ParamHints map[string]int64
	// HullTest enables the NConvUn ≤ NOrig profitability check (§5.1.2).
	HullTest bool
	// HullSlack relaxes the test to NConvUn ≤ HullSlack·NOrig. This is the
	// paper's threshold heuristic ("NConvUn − th ≤ NOrig"): the strict 1.0
	// setting would reject the paper's own Listing 2(b)/3(b) outputs, which
	// prefetch a triangular access class over its full bounding box (for
	// Block-sized triangles the box is < 2× the touched set). 2.0 accepts
	// exactly those cases while still rejecting sparse patterns such as
	// diagonals or large strides.
	HullSlack float64
	// SimplifyCFG drops loop-body conditionals in skeleton access versions
	// (§5.2.2).
	SimplifyCFG bool
	// PrefetchStores also prefetches written locations (off per §5.2.1).
	PrefetchStores bool
	// Dedup removes syntactically duplicate prefetches (§5.2.1).
	Dedup bool
	// MergeTol merges two per-class loop nests when their per-dimension
	// iteration counts differ by at most this much (the paper's relaxation
	// of the "same number of iterations" rule; its Listing 2(b) merges a
	// (Block−1)-trip triangular class with a Block-trip class). The merged
	// nest iterates the larger extent.
	MergeTol int64
	// CacheLineStride, when > 1, strides the innermost generated affine loop
	// by that many elements (the per-cache-line prefetch of §5.2.3).
	CacheLineStride int
	// ForceSkeleton disables the affine path (ablation).
	ForceSkeleton bool
	// MultiVersion additionally emits the full-CFG skeleton variant
	// (Result.AccessFull) when CFG simplification dropped conditionals, so
	// SelectAccessVariant can pick per task type by profiling — the
	// "multiple statically generated access versions" direction of §5.2.2.
	MultiVersion bool
}

// Defaults returns the configuration used in the paper's evaluation.
func Defaults() Options {
	return Options{
		HullTest:    true,
		HullSlack:   2.0,
		SimplifyCFG: true,
		Dedup:       true,
		MergeTol:    1,
	}
}

// Rejection records why one rung of the per-task degradation ladder
// (affine → skeleton → coupled) was not used.
type Rejection struct {
	// Strategy is the rejected rung.
	Strategy Strategy
	// Err explains the rejection. Expected analysis decisions (non-affine
	// loops, a failed profitability test, unsupported constructs) are
	// fault.KindDegraded; real faults — a codegen error, an impure generated
	// function, a recovered panic — keep their own kinds.
	Err error
}

// Faulted reports whether the rung fell to a real fault rather than an
// expected analysis decision.
func (r Rejection) Faulted() bool { return !errors.Is(r.Err, fault.ErrDegraded) }

// classifyRejection wraps plain errors as expected-decision rejections and
// leaves already-typed faults (verify, panic, ...) alone.
func classifyRejection(err error) error {
	var fe *fault.Error
	if errors.As(err, &fe) {
		return err
	}
	return fault.Wrap(fault.KindDegraded, err)
}

// testRungHook, when non-nil, runs inside each generation rung with the
// strategy under attempt; a non-nil return (or a panic) faults that rung so
// tests can exercise the ladder. Production code leaves it nil.
var testRungHook func(Strategy, *ir.Func) error

// Result describes the generated access version of one task.
type Result struct {
	// Task is the original task (the execute version).
	Task *ir.Func
	// Access is the generated access version; nil exactly when Strategy
	// is StrategyNone.
	Access *ir.Func
	// AccessFull is the unsimplified skeleton variant (conditionals kept),
	// present only with Options.MultiVersion when it differs from Access.
	AccessFull *ir.Func
	// Strategy records which generation path was used.
	Strategy Strategy
	// Reason explains why the affine path was not used (or why no access
	// version exists at all).
	Reason string
	// Rejections records, rung by rung, why higher ladder strategies were
	// not used; empty when the affine path succeeded.
	Rejections []Rejection

	// TotalLoops and AffineLoops report the Table 1 loop classification.
	TotalLoops  int
	AffineLoops int
	// Classes and MergedNests describe the affine generation (§5.1.2).
	Classes     int
	MergedNests int
	// NConvUn and NOrig are the profitability counts at ParamHints
	// (0 when not evaluated).
	NConvUn int64
	NOrig   int64
}

// Generate builds the access version of task f. f must already be optimized
// (passes.Optimize); GenerateModule handles that for whole modules.
func Generate(f *ir.Func, opts Options) (*Result, error) {
	if !f.IsTask {
		return nil, fmt.Errorf("dae: @%s is not a task", f.Name)
	}
	res := &Result{Task: f, Strategy: StrategyNone}

	var info *affineInfo
	reason := "affine path disabled"
	if !opts.ForceSkeleton {
		info, reason = analyzeAffine(f, opts)
		if info != nil {
			res.TotalLoops = info.totalLoops
			res.AffineLoops = info.affineLoops
		}
	}

	if reason == "" {
		hints, haveHints := hintVector(info.sp, opts.ParamHints)
		ok := true
		if opts.HullTest {
			if !haveHints {
				ok = false
				reason = "hull profitability test requires parameter hints"
			} else {
				var nconv, norig int64
				for _, cl := range info.classes {
					nc, no, okc := classCounts(cl, hints)
					if !okc {
						ok = false
						reason = "unbounded class prevents counting"
						break
					}
					nconv += nc
					norig += no
				}
				res.NConvUn, res.NOrig = nconv, norig
				slack := opts.HullSlack
				if slack <= 0 {
					slack = 1.0
				}
				if ok && float64(nconv) > slack*float64(norig) {
					ok = false
					reason = fmt.Sprintf("hull too wide: NConvUn=%d > %.2g·NOrig=%d", nconv, slack, norig)
				}
			}
		}
		if ok {
			groups := mergeClasses(info, hints, haveHints, opts.MergeTol)
			// The affine rung is guarded: a codegen fault (error, impure
			// result, or panic) rejects the rung and the ladder descends to
			// the skeleton path instead of failing the whole compilation.
			af, aerr := func() (af *ir.Func, err error) {
				defer fault.Recover(&err, "affine-access-gen")
				if testRungHook != nil {
					if herr := testRungHook(StrategyAffine, f); herr != nil {
						return nil, herr
					}
				}
				af, err = generateAffineAccess(f, info, groups, opts)
				if err != nil {
					return nil, err
				}
				passes.CleanupOnly(af)
				if err := verifyAccessPure(af); err != nil {
					return nil, err
				}
				return af, nil
			}()
			if aerr == nil {
				res.Access = af
				res.Strategy = StrategyAffine
				res.Classes = len(info.classes)
				res.MergedNests = len(groups)
				res.AffineLoops = res.TotalLoops // the whole task is affine
				return res, nil
			}
			res.Rejections = append(res.Rejections, Rejection{StrategyAffine, classifyRejection(aerr)})
			reason = fmt.Sprintf("affine generation faulted (%s)", fault.ClassOf(aerr))
		}
	}
	if len(res.Rejections) == 0 {
		res.Rejections = append(res.Rejections,
			Rejection{StrategyAffine, fault.New(fault.KindDegraded, "%s", reason)})
	}
	res.Reason = reason

	// The skeleton rung is guarded the same way; when it too is rejected the
	// task simply runs coupled (the paper's own fallback, §5.2.2 step 5).
	af, serr := func() (af *ir.Func, err error) {
		defer fault.Recover(&err, "skeleton-access-gen")
		if testRungHook != nil {
			if herr := testRungHook(StrategySkeleton, f); herr != nil {
				return nil, herr
			}
		}
		af, err = generateSkeletonAccess(f, opts)
		if err != nil {
			return nil, err
		}
		if err := verifyAccessPure(af); err != nil {
			return nil, err
		}
		return af, nil
	}()
	if serr != nil {
		res.Rejections = append(res.Rejections, Rejection{StrategySkeleton, classifyRejection(serr)})
		res.Reason = serr.Error()
		return res, nil
	}
	res.Access = af
	res.Strategy = StrategySkeleton
	if opts.MultiVersion && opts.SimplifyCFG {
		fullOpts := opts
		fullOpts.SimplifyCFG = false
		if full, err := generateSkeletonAccess(f, fullOpts); err == nil && full.NumInstrs() != af.NumInstrs() {
			// An impure full variant is dropped rather than fatal: the
			// simplified (verified) variant already serves the task.
			if err := verifyAccessPure(full); err == nil {
				full.Name = f.Name + "_access_full"
				res.AccessFull = full
			}
		}
	}
	// Table 1's "# affine loops" counts loops handled by the polyhedral
	// approach; a skeleton task contributes none, even if some of its loops
	// have affine induction variables.
	res.AffineLoops = 0
	if res.TotalLoops == 0 {
		// Count loops for reporting even when the affine analysis bailed
		// before classifying.
		dt := ir.NewDomTree(f)
		res.TotalLoops = len(ir.FindLoops(f, dt).AllLoops())
	}
	return res, nil
}

// verifyAccessPure runs the static purity verifier over a freshly generated
// access version — the post-condition of both generation strategies. A
// violation means a compiler bug (a retained external store or call would
// make the decoupled run observably different from the coupled one), so it
// surfaces as a typed fault.ErrVerify error rather than a diagnostic the
// caller might ignore.
func verifyAccessPure(af *ir.Func) error {
	diags := analysis.VerifyAccessPurity(af)
	if !analysis.HasErrors(diags) {
		return nil
	}
	first := diags[0]
	fe := fault.New(fault.KindVerify, "generated access version is impure: %s", first.Msg)
	fe.Func = af.Name
	if first.Pos.IsValid() {
		fe.Pos = first.Pos.String()
	}
	return fe
}

// GenerateModule optimizes every function, generates access versions for all
// tasks, adds them to the module as "<task>_access", and returns the results
// keyed by task name.
func GenerateModule(m *ir.Module, opts Options) (map[string]*Result, error) {
	if _, err := passes.OptimizeModule(m); err != nil {
		return nil, err
	}
	out := make(map[string]*Result)
	for _, f := range m.Tasks() {
		res, err := Generate(f, opts)
		if err != nil {
			return nil, err
		}
		out[f.Name] = res
		if res.Access != nil {
			// Replace any stale access version (e.g. when regenerating a
			// module that came back through the IR parser).
			m.RemoveFunc(res.Access.Name)
			m.AddFunc(res.Access)
		}
		if res.AccessFull != nil {
			m.RemoveFunc(res.AccessFull.Name)
			m.AddFunc(res.AccessFull)
		}
	}
	return out, nil
}
