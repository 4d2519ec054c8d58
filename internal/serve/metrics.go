package serve

import (
	"encoding/json"
	"net/http"

	"roccc/internal/netlist"
)

// KernelInfo is the metrics-plane snapshot of one registered kernel.
// ClosedFormCone, meaningful once the kernel is resident, reports
// whether the feedback cone runs in closed form on the batch path; a
// kernel with a cone that has none runs on the serial step.
type KernelInfo struct {
	Kernel   string `json:"kernel"`
	Compiled bool   `json:"compiled"`
	Resident bool   `json:"resident"` // warm pool built (false until first use, or when the build failed)

	ClosedFormCone bool `json:"closed_form_cone"`

	Opens     int64 `json:"opens"`
	Streams   int64 `json:"streams"`
	Faults    int64 `json:"faults"`
	InFlight  int64 `json:"in_flight"`
	HighWater int64 `json:"high_water"`

	Pool *netlist.PoolStats `json:"pool,omitempty"`
}

// ConnInfo is the metrics-plane snapshot of one live client connection.
type ConnInfo struct {
	Remote  string `json:"remote"`
	Opens   int64  `json:"opens"`
	Streams int64  `json:"streams"`
	Faults  int64  `json:"faults"`
}

// Metrics is the full server snapshot the HTTP endpoint serializes.
type Metrics struct {
	Proto    int          `json:"proto"`
	Workers  int          `json:"workers"`
	Draining bool         `json:"draining"`
	Served   int64        `json:"served"`
	Faults   int64        `json:"faults"`
	Sheds    int64        `json:"sheds"`
	InFlight int64        `json:"in_flight"`
	Kernels  []KernelInfo `json:"kernels"`
	Conns    []ConnInfo   `json:"conns"`
}

// KernelInfos snapshots every registered kernel, sorted by name.
func (s *Server) KernelInfos() []KernelInfo {
	entries := s.sortedEntries()
	infos := make([]KernelInfo, len(entries))
	for i, e := range entries {
		info := KernelInfo{
			Kernel:    e.spec.Name,
			Opens:     e.opens.Load(),
			Streams:   e.streams.Load(),
			Faults:    e.faults.Load(),
			InFlight:  e.inflight.Load(),
			HighWater: e.hwm.Load(),
		}
		e.mu.Lock()
		info.Compiled = e.compiled
		e.mu.Unlock()
		if pool := e.pool.Load(); pool != nil {
			info.Resident = true
			info.ClosedFormCone = e.cone
			st := pool.Stats()
			info.Pool = &st
		}
		infos[i] = info
	}
	return infos
}

// ConnInfos snapshots every live connection's counters.
func (s *Server) ConnInfos() []ConnInfo {
	s.mu.Lock()
	conns := make([]*srvConn, 0, len(s.conns))
	for _, sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	infos := make([]ConnInfo, len(conns))
	for i, sc := range conns {
		infos[i] = ConnInfo{
			Remote:  sc.c.RemoteAddr().String(),
			Opens:   sc.opens.Load(),
			Streams: sc.streams.Load(),
			Faults:  sc.faults.Load(),
		}
	}
	return infos
}

// Metrics snapshots the whole server for the observability plane.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Proto:    ProtoV2,
		Workers:  s.workers,
		Draining: s.closing.Load(),
		Served:   s.served.Load(),
		Faults:   s.faults.Load(),
		Sheds:    s.sheds.Load(),
		InFlight: s.inflight.Load(),
		Kernels:  s.KernelInfos(),
		Conns:    s.ConnInfos(),
	}
}

// FleetMetricsHandler serves a snapshot as JSON on GET: a server's
// Metrics or a fleet's document built around it. Mount it on any mux
// (rocccserve exposes it at /metrics). The fleet package cannot import
// serve's HTTP glue without a cycle, so the snapshot comes as a closure.
func FleetMetricsHandler(snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
