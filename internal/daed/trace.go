package daed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dae/internal/eval"
)

// TraceRequest asks the server for one app's full collected trace set (the
// coupled, manual-DAE and compiler-DAE traces plus compiler result
// summaries). It is the bulk-data sibling of SimulateRequest: instead of a
// rendered report, the client gets the traces themselves and evaluates any
// number of policies locally — this is how a remote daebench reproduces
// every experiment from one round-trip per app.
type TraceRequest struct {
	App string `json:"app"`
	// Cores is the simulated core count; 0 means the default 4.
	Cores int `json:"cores,omitempty"`
	// Refine applies profile-guided prefetch pruning before tracing.
	Refine bool `json:"refine,omitempty"`
	// MaxSteps and Degrade are as in SimulateRequest.
	MaxSteps int64  `json:"max_steps,omitempty"`
	Degrade  string `json:"degrade,omitempty"`
	// TimeoutMs bounds the wait (QoS, not content).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// TraceResponse is the wire response of POST /v1/trace.
type TraceResponse struct {
	Data *eval.AppDataWire `json:"data"`
	// Degraded marks a trace set collected through a degraded pipeline
	// (runtime quarantines fired). Degraded sets are never stored.
	Degraded  bool    `json:"degraded,omitempty"`
	CacheHit  bool    `json:"cache_hit"`
	Collapsed bool    `json:"collapsed"`
	Key       string  `json:"key"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// traceArtifact is the stored part of a trace response. A store hit
// serves the stored bytes as they are, with traceHitFields spliced in
// before the closing brace, so the response never re-codes the trace set.
// A stored artifact decodes with decodeTraceResponse, as a client decodes
// a response.
type traceArtifact struct {
	Data     *eval.AppDataWire `json:"data"`
	Degraded bool              `json:"degraded,omitempty"`
}

// traceHitFields are the per-request members of a TraceResponse, in its
// field order.
type traceHitFields struct {
	CacheHit  bool    `json:"cache_hit"`
	Collapsed bool    `json:"collapsed"`
	Key       string  `json:"key"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// traceKeyPrefix starts every trace artifact's store key.
const traceKeyPrefix = "trace/"

// checkTraceArtifact is the schema check of a trace/ payload entering the
// store: a clean (never degraded) artifact whose three traces decode and
// validate, read by the decoder a client reads a response with. Together
// with Put's JSON validation and the SHA-256 check on disk loads, it is
// what lets a hit serve stored bytes unchecked.
func checkTraceArtifact(payload []byte) error {
	art, err := decodeTraceResponse(payload)
	if err != nil {
		return fmt.Errorf("daed: trace artifact: %w", err)
	}
	if art.Data == nil {
		return errors.New("daed: trace artifact has no data")
	}
	if art.Degraded {
		return errors.New("daed: degraded trace artifacts are never stored")
	}
	if _, err := art.Data.Decode(); err != nil {
		return fmt.Errorf("daed: trace artifact: %w", err)
	}
	return nil
}

// install is the one way a payload from outside the process enters the
// store (replication, repair passes, read-repair pulls) and the way a
// collected trace set does: trace/ keys pass checkTraceArtifact first.
func (s *Server) install(key string, payload []byte) error {
	if strings.HasPrefix(key, traceKeyPrefix) {
		if err := checkTraceArtifact(payload); err != nil {
			return err
		}
	}
	return s.store.Put(key, payload)
}

// simulateRequest projects the trace request onto the simulate planner —
// same validation, same defaults — then rekeys the plan under the trace/
// namespace (traces are frequency-independent, so ZeroLatency never
// appears here).
func (req *TraceRequest) plan() (*simPlan, error) {
	sr := SimulateRequest{
		App: req.App, Cores: req.Cores, Refine: req.Refine,
		MaxSteps: req.MaxSteps, Degrade: req.Degrade,
	}
	p, err := sr.plan()
	if err != nil {
		return nil, err
	}
	p.key = traceKeyPrefix + "v1;" + p.key
	return p, nil
}

// Key returns the request's content key (see SimulateRequest.Key).
func (req *TraceRequest) Key() (string, error) {
	p, err := req.plan()
	if err != nil {
		return "", err
	}
	return p.key, nil
}

// handleTrace serves POST /v1/trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req TraceRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	req.MaxSteps = s.clampSteps(req.MaxSteps)
	p, err := req.plan()
	if err != nil {
		s.badRequest(w, err)
		return
	}
	ctx, release := s.hold(r, p.key, req.TimeoutMs)
	defer release()
	serve(ctx, s, w, r, ladder[*traceArtifact]{
		key: p.key, path: "/v1/trace", req: &req, flights: &s.traceFlights,
		hit: func(b []byte) bool {
			if !spliceable(b) {
				return false
			}
			s.respondTraceHit(w, b, p.key, start)
			return true
		},
		run: func(ctx context.Context) (*traceArtifact, error) { return s.runTrace(ctx, p) },
		fresh: func(art *traceArtifact, collapsed bool) {
			s.respondTrace(w, art, p.key, collapsed, start)
		},
	})
}

func (s *Server) respondTrace(w http.ResponseWriter, art *traceArtifact, key string, collapsed bool, start time.Time) {
	if art.Degraded {
		s.stats.degraded.Add(1)
	}
	s.writeJSON(w, http.StatusOK, &TraceResponse{
		Data:      art.Data,
		Degraded:  art.Degraded,
		Collapsed: collapsed,
		Key:       key,
		ElapsedMs: s.served(start),
	})
}

// spliceable reports whether a stored artifact is a non-empty JSON object
// that traceHitFields can be spliced into. Every artifact stored through
// install is; the check keeps a payload an older server stored unchecked
// from turning into a malformed response.
func spliceable(b []byte) bool {
	return len(b) > 2 && b[0] == '{' && b[len(b)-1] == '}'
}

// respondTraceHit writes a store hit: the stored artifact bytes with the
// per-request fields appended as its last members, the same document
// respondTrace would encode for the decoded artifact.
func (s *Server) respondTraceHit(w http.ResponseWriter, art []byte, key string, start time.Time) {
	s.stats.storeHits.Add(1)
	f := traceHitFields{CacheHit: true, Key: key, ElapsedMs: s.served(start)}
	tail, _ := json.Marshal(f) // a bool, a string and a finite float cannot fail
	tail[0] = ','
	tail = append(tail, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(art)-1+len(tail)))
	w.WriteHeader(http.StatusOK)
	w.Write(art[:len(art)-1])
	w.Write(tail)
}

// runTrace collects one app's trace set and encodes it for the wire. Clean
// sets enter the shared store and replicate; degraded sets (transient
// runtime faults) are returned but never stored, mirroring the trace
// cache's own rule.
func (s *Server) runTrace(ctx context.Context, p *simPlan) (*traceArtifact, error) {
	return execute(ctx, s, p.key, func(ctx context.Context) (*traceArtifact, bool, error) {
		data, err := eval.CollectWith(ctx, p.app, p.cfg, s.collectOptions(p))
		if err != nil {
			return nil, false, err
		}
		wire, err := eval.EncodeAppData(data)
		if err != nil {
			return nil, false, err
		}
		art := &traceArtifact{Data: wire}
		for _, row := range eval.DegradationRows([]*eval.AppData{data}) {
			if len(row.Quarantined) > 0 || row.FailedTasks > 0 {
				art.Degraded = true
			}
		}
		return art, !art.Degraded, nil
	})
}
