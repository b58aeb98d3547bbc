package rt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// traceJSON is the serialized form of a Trace; all fields of TaskRecord,
// interp.Counts and mem.Stats are exported plain data, so the encoding is a
// faithful snapshot of the frequency-independent profile. SaveTrace writes
// it with encoding/json; DecodeTrace reads it with traceDecoder.
type traceJSON struct {
	Version     int               `json:"version"`
	Workload    string            `json:"workload"`
	Decoupled   bool              `json:"decoupled"`
	Cores       int               `json:"cores"`
	NumBatches  int               `json:"num_batches"`
	Records     []TaskRecord      `json:"records"`
	Quarantined map[string]string `json:"quarantined,omitempty"`
}

// traceVersion 2 added the supervision fields (record Degraded/Failed/
// FaultKind and the trace quarantine set). Version-1 traces decode cleanly —
// the new fields are zero — so both are accepted.
const traceVersion = 2

// SaveTrace writes the trace as JSON. Saved traces let external tooling (or
// later runs) re-evaluate frequency policies without re-simulating.
func SaveTrace(w io.Writer, tr *Trace) error {
	enc := json.NewEncoder(w)
	return enc.Encode(traceJSON{
		Version:     traceVersion,
		Workload:    tr.Workload,
		Decoupled:   tr.Decoupled,
		Cores:       tr.Cores,
		NumBatches:  tr.NumBatches,
		Records:     tr.Records,
		Quarantined: tr.Quarantined,
	})
}

// EncodeTrace returns the trace in SaveTrace's JSON encoding as a byte
// slice, for embedding in larger documents (e.g. trace-cache entries).
func EncodeTrace(tr *Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := SaveTrace(&buf, tr); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeTrace parses a trace produced by EncodeTrace (or SaveTrace). The
// input must hold exactly one trace, optionally surrounded by whitespace.
func DecodeTrace(b []byte) (*Trace, error) {
	tj, err := decodeTraceJSON(b)
	if err != nil {
		return nil, fmt.Errorf("rt: decoding trace: %w", err)
	}
	return tj.trace()
}

// LoadTrace reads a trace saved with SaveTrace; like DecodeTrace, it
// requires the reader to hold that one trace and nothing else.
func LoadTrace(r io.Reader) (*Trace, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rt: decoding trace: %w", err)
	}
	return DecodeTrace(b)
}

// trace validates a decoded trace and returns it.
func (tj *traceJSON) trace() (*Trace, error) {
	if tj.Version < 1 || tj.Version > traceVersion {
		return nil, fmt.Errorf("rt: unsupported trace version %d", tj.Version)
	}
	if tj.Cores <= 0 {
		return nil, fmt.Errorf("rt: trace has invalid core count %d", tj.Cores)
	}
	for i, rec := range tj.Records {
		if rec.Core < 0 || rec.Core >= tj.Cores {
			return nil, fmt.Errorf("rt: record %d has core %d outside [0,%d)", i, rec.Core, tj.Cores)
		}
		if rec.Batch < 0 || rec.Batch >= tj.NumBatches {
			return nil, fmt.Errorf("rt: record %d has batch %d outside [0,%d)", i, rec.Batch, tj.NumBatches)
		}
	}
	return &Trace{
		Workload:    tj.Workload,
		Decoupled:   tj.Decoupled,
		Cores:       tj.Cores,
		NumBatches:  tj.NumBatches,
		Records:     tj.Records,
		Quarantined: tj.Quarantined,
	}, nil
}
