package fleet

import (
	"sort"

	"roccc/internal/serve"
)

// ShardMetrics is the metrics-plane snapshot of one shard.
type ShardMetrics struct {
	Index     int   `json:"index"`
	Slots     int   `json:"slots"`
	InFlight  int64 `json:"in_flight"`
	HighWater int64 `json:"high_water"`
	Streams   int64 `json:"streams"`
	Sheds     int64 `json:"sheds"`

	// Server is the shard server's full serve snapshot (per-kernel pool
	// stats, cone info, connection counters). The Router always fills
	// it; it is a pointer so documents from older fleets, whose TCP
	// shards carried none, still parse.
	Server *serve.Metrics `json:"server,omitempty"`
}

// KernelRoute is the metrics-plane view of one routed kernel: where the
// ring placed it and how many request opens it resolved (Uses). Its
// streams in flight and their high-water mark are in the owning shard's
// serve.KernelInfo.
type KernelRoute struct {
	Kernel string `json:"kernel"`
	Shard  int    `json:"shard"`
	Uses   int64  `json:"uses"`
}

// Metrics is the router's snapshot: every shard and every routed
// kernel.
type Metrics struct {
	Shards  []ShardMetrics `json:"shards"`
	Kernels []KernelRoute  `json:"kernels"`
}

// Snapshot is the /metrics document of a fleet: the front server's
// snapshot plus the router's. A single-server rocccserve serves the
// bare serve.Metrics instead, which parses as a Snapshot with no Fleet.
type Snapshot struct {
	Front serve.Metrics `json:"front"`
	Fleet *Metrics      `json:"fleet,omitempty"`
}

// Metrics snapshots every shard and routed kernel.
func (r *Router) Metrics() Metrics {
	m := Metrics{Shards: make([]ShardMetrics, len(r.shards))}
	for i, sh := range r.shards {
		srv := sh.local.Metrics()
		m.Shards[i] = ShardMetrics{
			Index:     sh.index,
			Slots:     int(sh.slots),
			InFlight:  sh.inflight.Load(),
			HighWater: sh.hwm.Load(),
			Streams:   sh.streams.Load(),
			Sheds:     sh.sheds.Load(),
			Server:    &srv,
		}
	}
	r.lmu.RLock()
	for name, kl := range r.load {
		m.Kernels = append(m.Kernels, KernelRoute{Kernel: name, Shard: kl.route.sh.index, Uses: kl.uses.Load()})
	}
	r.lmu.RUnlock()
	sort.Slice(m.Kernels, func(i, j int) bool { return m.Kernels[i].Kernel < m.Kernels[j].Kernel })
	return m
}
