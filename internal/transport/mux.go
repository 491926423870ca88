package transport

import (
	"context"
	"sync"

	"dimatch/internal/wire"
)

// Mux multiplexes concurrent request/reply exchanges over one Link. The data
// center owns one Mux per station link: sends are serialized so concurrent
// searches cannot interleave frames, and a dispatcher goroutine routes every
// incoming reply to the exchange that requested it by wire request ID.
//
// A caller whose context is cancelled simply abandons its exchange: the
// pending entry is dropped and the station's late reply, arriving with a
// request ID nobody is waiting on, is discarded by the dispatcher without
// disturbing other exchanges on the link.
type Mux struct {
	link Link

	sendMu sync.Mutex // serializes frames onto the link

	mu      sync.Mutex
	pending map[uint32]chan wire.Message // dimatch:guardedby mu
	nextID  uint32                       // dimatch:guardedby mu
	err     error                        // dimatch:guardedby mu — first link failure, sticky
	done    chan struct{}                // closed on link failure or Close
}

// NewMux wraps a link and starts its dispatcher goroutine. The caller must
// Close the mux (which closes the link) to release the goroutine.
func NewMux(link Link) *Mux {
	m := &Mux{
		link:    link,
		pending: make(map[uint32]chan wire.Message),
		done:    make(chan struct{}),
	}
	go m.dispatch()
	return m
}

// dispatch is the receive loop: it routes each reply to the pending exchange
// with the matching request ID and drops replies nobody awaits (abandoned by
// cancellation). It exits on the first receive error, failing the mux.
func (m *Mux) dispatch() {
	for {
		msg, err := m.link.Recv()
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[msg.Request]
		if ok {
			delete(m.pending, msg.Request)
		}
		m.mu.Unlock()
		if ok {
			ch <- msg // buffered, exactly one delivery per ID: never blocks
		}
	}
}

// fail records the first error and wakes every waiter. Idempotent.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		close(m.done)
	}
	m.mu.Unlock()
}

// exchangeScratch is RoundtripMany's per-call working set — the request ID
// and reply-channel slices — recycled through scratchPool so the search fan
// paths do not allocate two slices per station round. Only the slices are
// reused: each exchange still gets a fresh buffered channel, because a late
// dispatcher delivery into an abandoned channel must never surface in a
// subsequent call.
type exchangeScratch struct {
	ids   []uint32
	chans []chan wire.Message
}

var scratchPool = sync.Pool{New: func() any { return new(exchangeScratch) }}

// grow returns the scratch slices sized to n, reusing capacity.
func (sc *exchangeScratch) grow(n int) ([]uint32, []chan wire.Message) {
	if cap(sc.ids) < n {
		sc.ids = make([]uint32, n)
		sc.chans = make([]chan wire.Message, n)
	}
	sc.ids = sc.ids[:n]
	sc.chans = sc.chans[:n]
	return sc.ids, sc.chans
}

// release drops the channel references (they are one-shot) and returns the
// scratch to the pool. Callers must not release while the send goroutine
// can still read the ID slice — see RoundtripMany's cancellation path.
func (sc *exchangeScratch) release() {
	for i := range sc.chans {
		sc.chans[i] = nil
	}
	scratchPool.Put(sc)
}

// Roundtrip stamps msg with a fresh request ID, sends it, and waits for the
// matching reply, the context's cancellation, or link failure. It is safe
// for any number of concurrent callers. It is the single-message case of
// RoundtripMany, so both exchange shapes share one implementation of the
// ID-allocation, send and reply/failure-race logic.
func (m *Mux) Roundtrip(ctx context.Context, msg wire.Message) (wire.Message, error) {
	replies, err := m.RoundtripMany(ctx, []wire.Message{msg})
	if err != nil {
		return wire.Message{}, err
	}
	return replies[0], nil
}

// RoundtripMany pipelines several exchanges: every request is stamped with
// its own ID and sent back-to-back without waiting for replies, then all
// replies are collected. Over a real network this costs one round-trip of
// latency instead of len(msgs). Replies are returned in request order regardless of
// arrival order. On any failure — send error, link failure, cancellation —
// every exchange of the call is abandoned and the first error returned.
func (m *Mux) RoundtripMany(ctx context.Context, msgs []wire.Message) ([]wire.Message, error) {
	if len(msgs) == 0 {
		return nil, nil
	}
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	sc := scratchPool.Get().(*exchangeScratch)
	ids, chans := sc.grow(len(msgs))
	for i := range msgs {
		// 0 is reserved for fire-and-forget frames, and an ID still pending
		// (possible once the counter wraps on a long-lived link) must not be
		// reissued: the old exchange's reply would be routed to the new one.
		for {
			m.nextID++
			if m.nextID == 0 {
				m.nextID = 1
			}
			if _, busy := m.pending[m.nextID]; !busy {
				break
			}
		}
		ids[i] = m.nextID
		chans[i] = make(chan wire.Message, 1)
		m.pending[ids[i]] = chans[i]
	}
	m.mu.Unlock()

	abandon := func() {
		for _, id := range ids {
			m.forget(id)
		}
	}

	// One goroutine streams every frame, so a caller's deadline is honored
	// even while the link blocks (a stalled TCP peer, a full pipe): the
	// caller abandons the exchanges promptly, and the blocked send resolves
	// when the link drains or closes. The loop checks for cancellation and
	// mux failure between frames: once the call is abandoned, pushing the
	// remaining now-useless frames would only hold sendMu against
	// concurrent searches on the link.
	sendDone := make(chan error, 1)
	go func() {
		m.sendMu.Lock()
		defer m.sendMu.Unlock()
		for i, msg := range msgs {
			if err := ctx.Err(); err != nil {
				sendDone <- err
				return
			}
			select {
			case <-m.done:
				sendDone <- m.Err()
				return
			default:
			}
			//dimatch:allow lockio — sendMu exists precisely to serialize link writes; Send is non-blocking on the pipe transport
			if err := m.link.Send(msg.WithRequest(ids[i])); err != nil {
				sendDone <- err
				return
			}
		}
		sendDone <- nil
	}()
	select {
	case err := <-sendDone:
		if err != nil {
			abandon()
			sc.release()
			return nil, err
		}
	case <-ctx.Done():
		// The send goroutine may still be walking the ID slice; the scratch
		// leaks to the GC instead of the pool, which is the rare path.
		abandon()
		return nil, ctx.Err()
	case <-m.done:
		abandon()
		return nil, m.Err()
	}

	// From here the send goroutine has exited, so the scratch can be
	// recycled on every return.
	replies := make([]wire.Message, len(msgs))
	for i, ch := range chans {
		select {
		case replies[i] = <-ch:
		case <-ctx.Done():
			abandon()
			sc.release()
			return nil, ctx.Err()
		case <-m.done:
			// The reply may have been delivered in the instant before failure.
			select {
			case replies[i] = <-ch:
				continue
			default:
			}
			abandon()
			sc.release()
			return nil, m.Err()
		}
	}
	sc.release()
	return replies, nil
}

// forget abandons a pending exchange; a late reply for it will be dropped.
func (m *Mux) forget(id uint32) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// Send transmits a fire-and-forget frame (request ID 0), serialized against
// in-flight roundtrips.
func (m *Mux) Send(msg wire.Message) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	//dimatch:allow lockio — sendMu exists precisely to serialize link writes; Send is non-blocking on the pipe transport
	return m.link.Send(msg.WithRequest(0))
}

// InFlight returns the number of exchanges currently awaiting a reply on
// the link. It is an observability gauge for flow control: a streaming
// flush path that keeps queuing exchanges faster than the peer answers
// shows up here as a growing backlog before anything times out.
func (m *Mux) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Err returns the sticky link failure, if any.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Close closes the underlying link and fails every pending and future
// exchange with ErrClosed.
func (m *Mux) Close() error {
	err := m.link.Close()
	m.fail(ErrClosed)
	return err
}
