// Package daed implements the persistent compile/simulate service: a
// long-running HTTP/JSON server that amortizes the whole pipeline —
// compile, access generation, trace collection, evaluation — across
// requests via a content-addressed artifact store, collapses concurrent
// identical requests onto one execution, bounds concurrent work with an
// admission-controlled job queue (429 + Retry-After when saturated), and
// contains per-tenant faults with the runtime's quarantine ladder so one
// tenant's poisoned task type degrades that tenant's requests, never the
// process.
package daed

import (
	"fmt"

	"dae/internal/bench"
	"dae/internal/dvfs"
	"dae/internal/fault/inject"
	"dae/internal/rt"
)

// TenantHeader carries the requesting tenant's identity. Requests without
// it share the DefaultTenant.
const TenantHeader = "X-Dae-Tenant"

// DefaultTenant is the tenant of requests that carry no TenantHeader.
const DefaultTenant = "default"

// EpochHeader carries the membership epoch an epoch-aware client routed
// under. When a node at a newer epoch receives a request for a key it does
// not own, it answers 421 Misdirected Request carrying the fresh epoch and
// membership instead of serving off-placement, and the client re-routes.
// Requests without the header get the legacy behavior (proxy to the owners,
// fall back to local execution) so plain clients keep working.
const EpochHeader = "X-Dae-Epoch"

// SimulateRequest asks the server for one app's full evaluation: collect
// the coupled, manual-DAE and compiler-DAE traces and render the policy
// comparison report (byte-identical to a local daerun of the same flags).
type SimulateRequest struct {
	// App names the benchmark (LU, Cholesky, FFT, LBM, LibQ, Cigar, CG).
	App string `json:"app"`
	// Cores is the simulated core count; 0 means the default 4.
	Cores int `json:"cores,omitempty"`
	// ZeroLatency evaluates under instantaneous DVFS transitions (§6.1).
	ZeroLatency bool `json:"zero_latency,omitempty"`
	// Refine applies profile-guided prefetch pruning before tracing.
	Refine bool `json:"refine,omitempty"`
	// MaxSteps, when positive, is the per-task-phase interpreter step
	// budget; it maps directly onto the runtime's fault.ErrStepBudget
	// fuel accounting and participates in the content key.
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Degrade selects the runtime supervision mode: "off", "access"
	// (default), or "full".
	Degrade string `json:"degrade,omitempty"`
	// TimeoutMs, when positive, bounds how long this request waits for its
	// result — a QoS knob, not content, so it is excluded from the key;
	// the server maps it onto context cancellation.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Inject carries fault-injection rules in the CLI's -inject syntax
	// (testing and chaos only). Requests with injection run on the
	// tenant-scoped path: they are never served from nor written to the
	// shared store, so injected faults cannot poison other tenants.
	Inject string `json:"inject,omitempty"`
}

// simPlan is a validated, defaulted SimulateRequest resolved to the
// pipeline's own types.
type simPlan struct {
	app     bench.App
	cfg     rt.TraceConfig
	machine rt.Machine
	refine  bool
	rules   []inject.Rule
	key     string
}

// plan validates the request and resolves it against the pipeline types.
// Validation failures are client errors (HTTP 400).
func (req *SimulateRequest) plan() (*simPlan, error) {
	app, err := bench.AppByName(req.App)
	if err != nil {
		return nil, err
	}
	degrade := req.Degrade
	if degrade == "" {
		degrade = "access"
	}
	degradeMode, err := rt.ParseDegradeMode(degrade)
	if err != nil {
		return nil, err
	}
	rules, err := inject.ParseRules(req.Inject)
	if err != nil {
		return nil, err
	}
	if req.Cores < 0 || req.MaxSteps < 0 || req.TimeoutMs < 0 {
		return nil, fmt.Errorf("daed: negative cores/max_steps/timeout_ms")
	}
	cfg := rt.DefaultTraceConfig()
	if req.Cores > 0 {
		cfg.Cores = req.Cores
	}
	cfg.MaxSteps = req.MaxSteps
	cfg.Degrade = degradeMode
	m := rt.DefaultMachine()
	if req.ZeroLatency {
		m.DVFS = dvfs.Ideal()
	}
	p := &simPlan{app: app, cfg: cfg, machine: m, refine: req.Refine, rules: rules}
	// The content key covers everything that changes the report: the app,
	// the full trace-config fingerprint (cores, hierarchy, budgets,
	// degrade mode), the machine variant, and refinement. TimeoutMs is a
	// QoS knob; tenant identity never keys shared content.
	p.key = fmt.Sprintf("sim/v1;app=%s;%s;zerolat=%t;refine=%t",
		app.Name, cfg.Fingerprint(), req.ZeroLatency, req.Refine)
	return p, nil
}

// Key returns the request's content key — the same key the server plans,
// so cluster clients can route a request to the ring owners that likely
// hold its artifact. Invalid requests return an error (the server would
// reject them with 400 anyway).
func (req *SimulateRequest) Key() (string, error) {
	p, err := req.plan()
	if err != nil {
		return "", err
	}
	return p.key, nil
}

// simArtifact is the stored (and therefore shareable) part of a simulate
// result: everything except per-request serving metadata.
type simArtifact struct {
	App string `json:"app"`
	// Report is the rendered evaluation report, byte-identical to the
	// local daerun output for the same parameters.
	Report string `json:"report"`
	// Quarantined maps task types the runtime supervisor quarantined
	// during this collection to their fault kinds. Non-empty artifacts are
	// never stored in the shared store.
	Quarantined map[string]string `json:"quarantined,omitempty"`
}

// SimulateResponse is the wire response of POST /v1/simulate.
type SimulateResponse struct {
	App string `json:"app"`
	// Report is byte-identical to the local daerun rendering.
	Report string `json:"report"`
	// Degraded marks a response served through a degraded pipeline: the
	// runtime quarantined task types during collection, or the tenant has
	// prior quarantine history for this app.
	Degraded bool `json:"degraded,omitempty"`
	// Quarantined merges this run's quarantines with the tenant's recorded
	// history for the app.
	Quarantined map[string]string `json:"quarantined,omitempty"`
	// CacheHit reports the response was served from the artifact store
	// without touching the pipeline.
	CacheHit bool `json:"cache_hit"`
	// Collapsed reports the request joined an identical in-flight request
	// instead of executing the pipeline itself.
	Collapsed bool `json:"collapsed"`
	// Key is the content key of the result in the artifact store.
	Key string `json:"key"`
	// ElapsedMs is the server-side latency of this request.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// CompileRequest asks the server to compile one app and return the static
// artifacts: generation decisions, purity proofs, and the generated access
// variants' IR.
type CompileRequest struct {
	App string `json:"app"`
	// Refine applies profile-guided prefetch pruning to the generated
	// access versions before reporting them.
	Refine bool `json:"refine,omitempty"`
	// TimeoutMs bounds the wait, as in SimulateRequest.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// compileKey is the content key of a compile artifact.
func (req *CompileRequest) compileKey() string {
	return fmt.Sprintf("compile/v1;app=%s;refine=%t", req.App, req.Refine)
}

// Key returns the request's content key (see SimulateRequest.Key).
func (req *CompileRequest) Key() (string, error) { return req.compileKey(), nil }

// CompileResponse is the wire response of POST /v1/compile. Strategies is
// the generation-decision report; Purity holds the per-task purity verdict
// lines; Modules maps each task with a generated access version to its IR
// listing.
type CompileResponse struct {
	App        string            `json:"app"`
	Strategies string            `json:"strategies"`
	Purity     string            `json:"purity"`
	Modules    map[string]string `json:"modules,omitempty"`
	CacheHit   bool              `json:"cache_hit"`
	Collapsed  bool              `json:"collapsed"`
	Key        string            `json:"key"`
	ElapsedMs  float64           `json:"elapsed_ms"`
}

// compileArtifact is the stored part of a compile result.
type compileArtifact struct {
	App        string            `json:"app"`
	Strategies string            `json:"strategies"`
	Purity     string            `json:"purity"`
	Modules    map[string]string `json:"modules,omitempty"`
}

// ErrorResponse is the wire form of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Class is the fault taxonomy class of the failure (fault.ClassOf).
	Class string `json:"class,omitempty"`
	// RetryAfterMs accompanies 429 responses: the client should back off
	// at least this long before retrying.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// Epoch and Members accompany 421 Misdirected Request responses: the
	// node's current membership epoch and member list, so an epoch-aware
	// client adopts the fresh view and re-routes instead of blindly failing
	// over.
	Epoch   uint64   `json:"epoch,omitempty"`
	Members []string `json:"members,omitempty"`
}

// MembersRequest is the wire body of POST /v1/members: admin join/leave
// plus peer gossip of the newest membership epoch.
type MembersRequest struct {
	// Op is "join" or "leave" (admin operations naming Node), or "gossip"
	// (peer-to-peer propagation carrying Epoch and Members).
	Op string `json:"op"`
	// Node is the advertised base URL joining or leaving (admin ops).
	Node string `json:"node,omitempty"`
	// Epoch and Members carry a full view for gossip. A receiver adopts the
	// view iff it is newer than its own; receivers never re-gossip, so one
	// admin change fans out exactly once.
	Epoch   uint64   `json:"epoch,omitempty"`
	Members []string `json:"members,omitempty"`
}

// MembersResponse answers POST /v1/members with the node's view after the
// operation.
type MembersResponse struct {
	Epoch   uint64   `json:"epoch"`
	Members []string `json:"members"`
}

// RingResponse is the wire response of GET /v1/ring: the node's current
// view of the cluster, for debugging and for client Refresh.
type RingResponse struct {
	Epoch    uint64   `json:"epoch"`
	Self     string   `json:"self"`
	Members  []string `json:"members"`
	Replicas int      `json:"replicas"`
	// Ownership maps each member to its fraction of the key space (primary
	// arc length).
	Ownership map[string]float64 `json:"ownership"`
}
