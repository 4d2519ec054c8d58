package fleet

import (
	"context"
	"fmt"
	"time"

	"roccc/internal/serve"
)

// Local is the in-process fleet: shard servers that each register every
// spec, a Router over them, and a front server dispatching through the
// Router. Serve the front on a listener; the shards take no
// connections. rocccserve -shards N, rocccload -local and the fleet
// sweep all run this one topology.
type Local struct {
	Front  *serve.Server
	Router *Router
	Shards []*serve.Server
}

// NewLocal builds a fleet of shards shard servers, each with every spec
// registered and a budget of slots concurrent streams (<= 0 means
// GOMAXPROCS), behind a front server whose connections each run up to
// frontWidth streams at once (<= 0 means GOMAXPROCS).
func NewLocal(specs []serve.KernelSpec, shards, slots, frontWidth int) (*Local, error) {
	l := &Local{}
	var fs []Shard
	for i := 0; i < shards; i++ {
		w := serve.NewServer(slots)
		for _, spec := range specs {
			if err := w.Register(spec); err != nil {
				return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
			}
		}
		l.Shards = append(l.Shards, w)
		fs = append(fs, Shard{Local: w, Slots: w.Workers()})
	}
	r, err := NewRouter(fs)
	if err != nil {
		return nil, err
	}
	l.Router = r
	l.Front = serve.NewServer(frontWidth)
	l.Front.SetDispatcher(r)
	return l, nil
}

// Snapshot is the fleet's /metrics document.
func (l *Local) Snapshot() Snapshot {
	m := l.Router.Metrics()
	return Snapshot{Front: l.Front.Metrics(), Fleet: &m}
}

// Balanced runs serve.Server.Balanced on every shard, where the pools
// live, each waiting up to timeout, and reports the first shard that
// fails it.
func (l *Local) Balanced(timeout time.Duration) error {
	for i, w := range l.Shards {
		if err := w.Balanced(timeout); err != nil {
			return fmt.Errorf("fleet: shard %d: %w", i, err)
		}
	}
	return nil
}

// Shutdown drains the front server, then each shard, all within ctx,
// and returns the first error.
func (l *Local) Shutdown(ctx context.Context) error {
	err := l.Front.Shutdown(ctx)
	for _, w := range l.Shards {
		if serr := w.Shutdown(ctx); err == nil {
			err = serr
		}
	}
	return err
}
