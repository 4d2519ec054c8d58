// Package client is the supported public surface for driving a
// rocccserve instance or fleet: the TCP client, its dial options, the
// typed load-shed error, and the metrics-plane snapshot types, all
// re-exported from the internal packages so external drivers (and
// cmd/rocccload) never reach into internal/serve piecemeal.
//
// The stable surface is exactly what this package exports:
//
//   - DialContext, the one way to open a Conn: every Conn speaks
//     protocol v2 and has one request slot unless WithPipelined, the
//     one DialOption, sets another count.
//   - Conn.Run / Conn.RunContext / Conn.Ping / Conn.Healthy /
//     Conn.Close and the Job batch type they fill in place.
//   - BusyError, the typed load-shed a saturated fleet shard raises —
//     match with errors.As and count it as backpressure, not failure.
//   - FaultError, the typed mid-stream data-path fault (operator class,
//     abort cycle, message), identical to what a local System.Run
//     raises.
//   - Metrics / KernelInfo / ConnInfo / FleetMetrics / ShardMetrics /
//     KernelRoute / PoolStats — the JSON shapes the /metrics endpoint
//     serves — plus FleetSnapshot
//     and ScrapeMetrics to fetch and parse either the single-server or
//     the fleet form.
//
// Everything else under internal/ remains free to change between PRs.
package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"roccc/internal/dp"
	"roccc/internal/fleet"
	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// Conn is the TCP client connection; see DialContext.
type Conn = serve.Conn

// DialOption configures DialContext.
type DialOption = serve.DialOption

// Job is one independent input stream in a Run batch: inputs in,
// outputs/feedbacks/cycles (or a typed Err) out, buffers reused across
// calls.
type Job = netlist.Job

// BusyError is the typed load-shed raised when a fleet shard's slot
// budget is full; clients should treat it as backpressure.
type BusyError = serve.BusyError

// FaultError is the typed mid-stream data-path fault (Job.Err).
type FaultError = dp.FaultError

// PoolStats is one kernel pool's admission balance sheet.
type PoolStats = netlist.PoolStats

// Metrics is a single server's metrics snapshot (the /metrics JSON).
type Metrics = serve.Metrics

// KernelInfo is the per-kernel slice of a server snapshot.
type KernelInfo = serve.KernelInfo

// ConnInfo is the per-connection slice of a server snapshot.
type ConnInfo = serve.ConnInfo

// FleetMetrics is the router-level snapshot of a sharded fleet.
type FleetMetrics = fleet.Metrics

// ShardMetrics is the per-shard slice of a fleet snapshot.
type ShardMetrics = fleet.ShardMetrics

// KernelRoute is the per-kernel routing slice of a fleet snapshot.
type KernelRoute = fleet.KernelRoute

// DialContext connects to a rocccserve address; see serve.DialContext.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Conn, error) {
	return serve.DialContext(ctx, addr, opts...)
}

// WithPipelined sets the Conn's request slots for concurrent requests
// over one socket: slots > 0 bounds the client-side in-flight count,
// slots <= 0 leaves it to the server.
func WithPipelined(slots int) DialOption { return serve.WithPipelined(slots) }

// FleetSnapshot is the /metrics document: the front server's snapshot
// plus, when the process runs a sharded fleet, the router's. A
// single-server rocccserve serves the bare Metrics object instead;
// ScrapeMetrics normalizes both shapes into this struct.
type FleetSnapshot struct {
	Front Metrics       `json:"front"`
	Fleet *FleetMetrics `json:"fleet,omitempty"`
}

// ScrapeMetrics fetches and parses a rocccserve /metrics endpoint,
// accepting both the single-server and the fleet document shapes.
func ScrapeMetrics(ctx context.Context, url string) (*FleetSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("client: reading %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: %s: %s", url, resp.Status)
	}
	return ParseMetrics(body)
}

// ParseMetrics parses a /metrics JSON document in either shape (bare
// server Metrics, or the fleet {front, fleet} snapshot).
func ParseMetrics(body []byte) (*FleetSnapshot, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, fmt.Errorf("client: malformed metrics document: %w", err)
	}
	var snap FleetSnapshot
	if _, fleetShape := probe["front"]; fleetShape {
		if err := json.Unmarshal(body, &snap); err != nil {
			return nil, fmt.Errorf("client: malformed fleet metrics: %w", err)
		}
		return &snap, nil
	}
	if err := json.Unmarshal(body, &snap.Front); err != nil {
		return nil, fmt.Errorf("client: malformed server metrics: %w", err)
	}
	return &snap, nil
}
