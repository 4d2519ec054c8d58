package serve

import (
	"net"
	"runtime"
	"sync"
)

// writer is a connection's one writer goroutine, on both ends. A sender
// takes the writer's lock (lock), encodes whole frames straight into its
// pending buffer and releases it (unlock), which wakes the writer.
// Before each flush the writer yields once, so that the senders already
// runnable append too, then swaps its two buffers and writes everything
// pending in one Write. On loopback the yield is what batches: one
// connection's executors and callers run one after another, and a
// writer that flushed at once would write each sender's frames alone.
//
// A sender waits only while maxPending bytes are already queued, so a
// peer that stops reading still stops every sender through TCP
// backpressure. After a failed Write the writer discards what is queued
// instead of writing it. Each queued frame reaches written exactly once:
// with the error of the Write that carried it (or discarded it), or with
// net.ErrClosed when it was encoded after stop.
type writer struct {
	c net.Conn
	// written runs after each flush with the number of in-flight
	// streams the flushed frames answered and the Write's error.
	written func(streams int, err error)

	mu      sync.Mutex
	more    sync.Cond // the writer waits for frames or stop
	room    sync.Cond // senders wait for pending to drop under maxPending
	pending encoder   // frames queued since the last flush
	mark    int       // len(pending.buf) when the lock holder took it
	spare   []byte    // the other buffer, empty; nil while a Write holds it
	streams int       // in-flight streams the frames in pending answer
	err     error     // the first failed Write: later flushes are discarded
	stopped bool
	done    chan struct{}
}

// start runs the writer goroutine on c.
func (w *writer) start(c net.Conn, written func(streams int, err error)) {
	w.c, w.written = c, written
	w.more.L, w.room.L = &w.mu, &w.mu
	w.done = make(chan struct{})
	go w.loop()
}

// lock takes the writer's lock once fewer than maxPending bytes are
// queued (or the writer has stopped) and returns the pending buffer's
// encoder: the caller appends whole frames to it (next ... finish, never
// begin), then calls unlock.
func (w *writer) lock() *encoder {
	w.mu.Lock()
	for len(w.pending.buf) >= maxPending && !w.stopped {
		w.room.Wait()
	}
	w.mark = len(w.pending.buf)
	return &w.pending
}

// unlock queues the frames encoded since lock, which answer streams
// in-flight streams, wakes the writer and releases the lock. After stop
// the frames are dropped instead.
func (w *writer) unlock(streams int) {
	if w.stopped {
		w.pending.buf = w.pending.buf[:w.mark]
		w.mu.Unlock()
		w.written(streams, net.ErrClosed)
		return
	}
	w.streams += streams
	w.more.Signal()
	w.mu.Unlock()
}

// stop has the writer flush what is queued and exit, and waits for it.
// Frames encoded later are dropped.
func (w *writer) stop() {
	w.mu.Lock()
	w.stopped = true
	w.more.Signal()
	w.room.Broadcast()
	w.mu.Unlock()
	<-w.done
}

func (w *writer) loop() {
	defer close(w.done)
	w.mu.Lock()
	for {
		for len(w.pending.buf) == 0 && !w.stopped {
			w.more.Wait()
		}
		if len(w.pending.buf) == 0 {
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
		runtime.Gosched()
		w.mu.Lock()
		buf, streams, err := w.pending.buf, w.streams, w.err
		w.pending.buf, w.spare, w.streams = w.spare, nil, 0
		w.room.Broadcast()
		w.mu.Unlock()
		if err == nil {
			_, err = w.c.Write(buf)
		}
		w.written(streams, err)
		w.mu.Lock()
		if w.err == nil {
			w.err = err
		}
		if cap(buf) <= bufHighWater {
			w.spare = buf[:0]
		}
	}
}
