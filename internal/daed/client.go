package daed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dae/internal/fault"
)

// Client is a typed client for the daed HTTP API, used by daerun -server,
// daeload, and the tests.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8787".
	Base string
	// Tenant, when non-empty, is sent as the X-Dae-Tenant header.
	Tenant string
	// Epoch, when non-empty, is sent as the X-Dae-Epoch header, marking the
	// client epoch-aware: a non-owner node at a newer membership epoch
	// answers 421 with the fresh view instead of serving off-placement.
	Epoch string
	// HTTP is the underlying client; nil means a dedicated client with no
	// overall timeout (deadlines travel per-request via context and the
	// request's timeout_ms budget).
	HTTP *http.Client
}

// RemoteError is a non-2xx response decoded into the server's error shape.
type RemoteError struct {
	Status     int
	Body       ErrorResponse
	RetryAfter time.Duration
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("daed: server returned %d: %s", e.Status, e.Body.Error)
}

// Saturated reports whether the failure was an admission rejection (HTTP
// 429); the client should back off RetryAfter before retrying.
func (e *RemoteError) Saturated() bool { return e.Status == http.StatusTooManyRequests }

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// maxBody bounds the response body the client reads.
const maxBody = 16 << 20

// do posts one JSON request and decodes the JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	raw, err := c.fetch(ctx, method, path, in)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// fetch sends one request with an optional JSON body and returns the body
// of a 2xx response; any other status is a *RemoteError.
func (c *Client) fetch(ctx context.Context, method, path string, in any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
	if c.Epoch != "" {
		req.Header.Set(EpochHeader, c.Epoch)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fault.Wrap(fault.KindTimeout, err)
		}
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := readBody(resp)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		re := &RemoteError{Status: resp.StatusCode}
		_ = json.Unmarshal(raw, &re.Body)
		if re.Body.Error == "" {
			re.Body.Error = string(bytes.TrimSpace(raw))
		}
		re.RetryAfter = time.Duration(re.Body.RetryAfterMs) * time.Millisecond
		return nil, re
	}
	if len(raw) > maxBody {
		return nil, fmt.Errorf("daed: response body larger than %d bytes", maxBody)
	}
	return raw, nil
}

// readBody reads at most maxBody+1 bytes of a response body, into one
// buffer of the body's size when the server sent a Content-Length.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxBody {
		b := make([]byte, n)
		_, err := io.ReadFull(resp.Body, b)
		return b, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
}

// Simulate runs one simulate request against the server.
func (c *Client) Simulate(ctx context.Context, req *SimulateRequest) (*SimulateResponse, error) {
	var resp SimulateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/simulate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Trace fetches one app's collected trace set from the server. The
// response is decoded in one pass (decodeTraceResponse); its traces alias
// the body buffer.
func (c *Client) Trace(ctx context.Context, req *TraceRequest) (*TraceResponse, error) {
	raw, err := c.fetch(ctx, http.MethodPost, "/v1/trace", req)
	if err != nil {
		return nil, err
	}
	resp, err := decodeTraceResponse(raw)
	if err != nil {
		return nil, fmt.Errorf("daed: decoding trace response: %w", err)
	}
	return resp, nil
}

// Compile runs one compile request against the server.
func (c *Client) Compile(ctx context.Context, req *CompileRequest) (*CompileResponse, error) {
	var resp CompileResponse
	if err := c.do(ctx, http.MethodPost, "/v1/compile", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the server's serving counters.
func (c *Client) Stats(ctx context.Context) (*StatsSnapshot, error) {
	var resp StatsSnapshot
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ring fetches the server's current membership view.
func (c *Client) Ring(ctx context.Context) (*RingResponse, error) {
	var resp RingResponse
	if err := c.do(ctx, http.MethodGet, "/v1/ring", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Members performs one membership operation (admin join/leave, or gossip)
// and returns the server's resulting view.
func (c *Client) Members(ctx context.Context, req *MembersRequest) (*MembersResponse, error) {
	var resp MembersResponse
	if err := c.do(ctx, http.MethodPost, "/v1/members", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Join asks the server to admit node into the cluster at the next epoch.
func (c *Client) Join(ctx context.Context, node string) (*MembersResponse, error) {
	return c.Members(ctx, &MembersRequest{Op: "join", Node: node})
}

// Leave asks the server to remove node from the cluster at the next epoch;
// the removed node drains and hands its hot artifacts off.
func (c *Client) Leave(ctx context.Context, node string) (*MembersResponse, error) {
	return c.Members(ctx, &MembersRequest{Op: "leave", Node: node})
}

// ClearQuarantine lifts every quarantine recorded for the client's tenant,
// returning how many (app, task) entries were cleared.
func (c *Client) ClearQuarantine(ctx context.Context) (int, error) {
	var resp struct {
		Cleared int `json:"cleared"`
	}
	if err := c.do(ctx, http.MethodDelete, "/v1/quarantine", nil, &resp); err != nil {
		return 0, err
	}
	return resp.Cleared, nil
}
