package eval

import (
	"encoding/json"
	"fmt"

	"dae/internal/dae"
	"dae/internal/rt"
)

// ResultSummary is the persistable/wire summary of a dae.Result: the
// Table 1 and strategy-report fields. The generated IR functions are
// process-local and never serialized, so a decoded Result carries summaries
// only (HasAccess records whether an access version existed; a decoded
// Result keeps that in its Strategy).
//
// It is shared by the trace-cache envelope and the /v1/trace wire format,
// so a daed node and a local cache agree byte-for-byte on what a stored
// result looks like.
type ResultSummary struct {
	Strategy    int    `json:"strategy"`
	Reason      string `json:"reason,omitempty"`
	TotalLoops  int    `json:"total_loops"`
	AffineLoops int    `json:"affine_loops"`
	Classes     int    `json:"classes"`
	MergedNests int    `json:"merged_nests"`
	NConvUn     int64  `json:"n_conv_un"`
	NOrig       int64  `json:"n_orig"`
	HasAccess   bool   `json:"has_access"`
}

// summarizeResult projects a dae.Result onto its serializable summary.
// HasAccess comes from the Strategy, which is StrategyNone exactly when no
// access version was generated, so a summary-only Result (decoded from the
// wire or a trace-cache load, with no Access) summarizes as the fresh one
// did.
func summarizeResult(r *dae.Result) ResultSummary {
	return ResultSummary{
		Strategy:    int(r.Strategy),
		Reason:      r.Reason,
		TotalLoops:  r.TotalLoops,
		AffineLoops: r.AffineLoops,
		Classes:     r.Classes,
		MergedNests: r.MergedNests,
		NConvUn:     r.NConvUn,
		NOrig:       r.NOrig,
		HasAccess:   r.Strategy != dae.StrategyNone,
	}
}

// result reconstructs the summary-only dae.Result.
func (rj ResultSummary) result() *dae.Result {
	return &dae.Result{
		Strategy:    dae.Strategy(rj.Strategy),
		Reason:      rj.Reason,
		TotalLoops:  rj.TotalLoops,
		AffineLoops: rj.AffineLoops,
		Classes:     rj.Classes,
		MergedNests: rj.MergedNests,
		NConvUn:     rj.NConvUn,
		NOrig:       rj.NOrig,
	}
}

// AppDataWire is the JSON wire form of one AppData: the three encoded
// traces plus the compiler's per-task result summaries. It is what daed's
// POST /v1/trace returns, letting a remote daebench reconstruct the exact
// trace set a local collection would produce and evaluate it client-side.
type AppDataWire struct {
	Name    string                   `json:"name"`
	CAE     json.RawMessage          `json:"cae"`
	Manual  json.RawMessage          `json:"manual"`
	Auto    json.RawMessage          `json:"auto"`
	Results map[string]ResultSummary `json:"results,omitempty"`
}

// EncodeAppData serializes one collected AppData for the wire.
func EncodeAppData(d *AppData) (*AppDataWire, error) {
	w := &AppDataWire{Name: d.Name}
	var err error
	if w.CAE, err = rt.EncodeTrace(d.CAE); err != nil {
		return nil, fmt.Errorf("eval: encode %s coupled trace: %w", d.Name, err)
	}
	if w.Manual, err = rt.EncodeTrace(d.Manual); err != nil {
		return nil, fmt.Errorf("eval: encode %s manual trace: %w", d.Name, err)
	}
	if w.Auto, err = rt.EncodeTrace(d.Auto); err != nil {
		return nil, fmt.Errorf("eval: encode %s auto trace: %w", d.Name, err)
	}
	if d.Results != nil {
		w.Results = make(map[string]ResultSummary, len(d.Results))
		for name, r := range d.Results {
			w.Results[name] = summarizeResult(r)
		}
	}
	return w, nil
}

// Decode reconstructs the AppData. The traces are validated by
// rt.DecodeTrace exactly as cache loads are, so a damaged wire payload
// fails here instead of corrupting an evaluation.
func (w *AppDataWire) Decode() (*AppData, error) {
	d := &AppData{Name: w.Name}
	var err error
	if d.CAE, err = rt.DecodeTrace(w.CAE); err != nil {
		return nil, fmt.Errorf("eval: decode %s coupled trace: %w", w.Name, err)
	}
	if d.Manual, err = rt.DecodeTrace(w.Manual); err != nil {
		return nil, fmt.Errorf("eval: decode %s manual trace: %w", w.Name, err)
	}
	if d.Auto, err = rt.DecodeTrace(w.Auto); err != nil {
		return nil, fmt.Errorf("eval: decode %s auto trace: %w", w.Name, err)
	}
	if w.Results != nil {
		d.Results = make(map[string]*dae.Result, len(w.Results))
		for name, rj := range w.Results {
			d.Results[name] = rj.result()
		}
	}
	return d, nil
}
