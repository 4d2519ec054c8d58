// Package fleet is the placement layer above internal/serve: a
// front-end Router consistent-hashes kernel names across N worker
// shards, so one serving fleet scales kernels horizontally while every
// stream still lands on a warm SystemPool. A shard is an in-process
// serve.Server; the Router implements serve.Dispatcher, so a front-end
// serve.Server plugs it in with SetDispatcher and the wire layer never
// knows the difference. NewLocal builds that whole in-process fleet —
// shards, Router and front — and checks its pools (Local.Balanced).
//
// The Router owns admission control: each shard has a slot budget (its
// executor width by default), and a stream arriving at a saturated
// shard is shed immediately with a typed serve.BusyError instead of
// queueing without bound. The budget also bounds each kernel's pool on
// the shard: a pool never builds more Systems than the shard admits
// streams at once. The resident set is bounded by the shard's
// registry: each registered kernel keeps one pool for the server's
// life.
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"roccc/internal/netlist"
	"roccc/internal/serve"
)

// Shard describes one worker for NewRouter: an in-process serve.Server
// (Local, required) and its slot budget. Slots bounds the shard's
// concurrent streams — admission control sheds beyond it; <= 0 takes
// the server's executor width (Local.Workers).
type Shard struct {
	Local *serve.Server
	Slots int
}

// vnodesPerShard is the consistent-hash ring's virtual-node fan-out:
// enough that kernel load spreads within a few percent of even, small
// enough that the ring stays a cache-resident binary-search array.
const vnodesPerShard = 64

// shard is the Router's per-worker state.
type shard struct {
	index int
	local *serve.Server
	slots int64

	inflight atomic.Int64
	hwm      atomic.Int64
	streams  atomic.Int64
	sheds    atomic.Int64
}

// vnode is one ring point: a hash owned by a shard.
type vnode struct {
	hash  uint64
	shard int32
}

// kernelLoad is the Router's per-kernel record: the cached route (the
// ring is immutable, so a kernel's shard never changes) plus the count
// of opens the metrics plane reads. The streams in flight per kernel
// are the owning shard's to count (serve.KernelInfo).
type kernelLoad struct {
	route route
	uses  atomic.Int64
}

// route is the serve.Runner a Dispatch resolves to: one kernel pinned
// to one shard.
type route struct {
	sh     *shard
	kernel string
}

// Router consistent-hashes kernel names across shards and admits
// streams against per-shard slot budgets. It implements
// serve.Dispatcher; it is safe for concurrent use.
type Router struct {
	shards []*shard
	ring   []vnode // sorted by hash

	lmu  sync.RWMutex
	load map[string]*kernelLoad
}

// NewRouter builds a router over the given shards. The ring is fixed at
// construction: vnodesPerShard points per shard, hashed from the
// shard's index ("inproc-<i>#<v>"), so the kernel→shard mapping is
// deterministic across restarts with the same shard count.
func NewRouter(shards []Shard) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards")
	}
	r := &Router{
		shards: make([]*shard, len(shards)),
		ring:   make([]vnode, 0, len(shards)*vnodesPerShard),
		load:   map[string]*kernelLoad{},
	}
	for i, s := range shards {
		if s.Local == nil {
			return nil, fmt.Errorf("fleet: shard %d: no server (Local is nil)", i)
		}
		slots := s.Slots
		if slots <= 0 {
			slots = s.Local.Workers()
		}
		r.shards[i] = &shard{index: i, local: s.Local, slots: int64(slots)}
		for v := 0; v < vnodesPerShard; v++ {
			r.ring = append(r.ring, vnode{hash: fnv64(fmt.Sprintf("inproc-%d#%d", i, v)), shard: int32(i)})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].hash < r.ring[j].hash })
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// fnv64 is the ring's hash: FNV-1a over the name, then a 64-bit
// avalanche finalizer (splitmix64's mixer). Raw FNV of short, similar
// strings — vnode labels, kernel names — clusters in the high bits the
// sorted ring is ordered by, skewing shard arcs as far as 60/40 on two
// shards; the finalizer spreads them to within a few percent of even.
//
//roccc:hotpath
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ShardFor maps a kernel name to its shard: first ring point at or
// after the name's hash, wrapping at the top.
//
//roccc:hotpath
func (r *Router) ShardFor(kernel string) int {
	h := fnv64(kernel)
	ring := r.ring
	lo, hi := 0, len(ring)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ring[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ring) {
		lo = 0
	}
	return int(ring[lo].shard)
}

// Dispatch resolves a kernel to its shard's Runner (serve.Dispatcher).
// The route is cached per kernel — the ring is immutable — so the
// steady state is one read-locked map hit.
//
//roccc:hotpath
func (r *Router) Dispatch(kernel string) (serve.Runner, error) {
	r.lmu.RLock()
	kl := r.load[kernel]
	r.lmu.RUnlock()
	if kl == nil {
		var err error
		if kl, err = r.admitKernel(kernel); err != nil {
			return nil, err
		}
	}
	kl.uses.Add(1)
	return &kl.route, nil
}

// admitKernel is Dispatch's first-use slow path: resolve the shard,
// have it compile the kernel, refuse the kernel with the shard's error
// when it cannot serve it (so the request error surfaces at open, as it
// does on a plain server), and cache the route. A refusal caches
// nothing: a later registration on the shard makes the kernel
// servable.
func (r *Router) admitKernel(kernel string) (*kernelLoad, error) {
	sh := r.shards[r.ShardFor(kernel)]
	if err := sh.local.Ready(kernel); err != nil {
		return nil, err
	}
	r.lmu.Lock()
	defer r.lmu.Unlock()
	if kl := r.load[kernel]; kl != nil {
		return kl, nil
	}
	kl := &kernelLoad{route: route{sh: sh, kernel: kernel}}
	r.load[kernel] = kl
	return kl, nil
}

// RunStream admits the stream against the shard's slot budget — shedding
// with a typed serve.BusyError when saturated — and executes it on the
// shard's server.
//
//roccc:hotpath
func (rt *route) RunStream(job *netlist.Job) error {
	sh := rt.sh
	if n := sh.inflight.Add(1); n > sh.slots {
		sh.inflight.Add(-1)
		sh.sheds.Add(1)
		job.Err = &serve.BusyError{Kernel: rt.kernel, Shard: sh.index}
		return job.Err
	}
	n := sh.inflight.Load()
	for hw := sh.hwm.Load(); n > hw && !sh.hwm.CompareAndSwap(hw, n); hw = sh.hwm.Load() {
	}
	sh.streams.Add(1)
	err := sh.local.RunStream(rt.kernel, job)
	sh.inflight.Add(-1)
	return err
}

// Close releases nothing: the Router holds no connections, and shard
// servers belong to their owners and are not shut down.
func (r *Router) Close() error { return nil }
