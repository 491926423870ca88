package transport

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dimatch/internal/wire"
)

// echoStation answers every request with its own payload, echoing the
// request ID the way a base station loop does. It stops on shutdown or link
// closure. Requests whose payload is "hold" are not answered until release
// is closed — a controllable stall for cancellation tests.
func echoStation(t *testing.T, link Link, release <-chan struct{}) {
	t.Helper()
	for {
		msg, err := link.Recv()
		if err != nil {
			return
		}
		if msg.Kind == wire.KindShutdown {
			return
		}
		if bytes.Equal(msg.Payload, []byte("hold")) && release != nil {
			<-release
		}
		reply := wire.Message{Kind: wire.KindBatchReply, Request: msg.Request, Payload: msg.Payload}
		if err := link.Send(reply); err != nil {
			return
		}
	}
}

func TestMuxConcurrentRoundtrips(t *testing.T) {
	center, station := Pipe(nil, nil)
	go echoStation(t, station, nil)
	m := NewMux(center)
	defer m.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := []byte{byte(i), byte(i >> 8)}
			reply, err := m.Roundtrip(context.Background(), wire.Message{Kind: wire.KindShipAll, Payload: payload})
			if err != nil {
				t.Errorf("roundtrip %d: %v", i, err)
				return
			}
			if !bytes.Equal(reply.Payload, payload) {
				t.Errorf("roundtrip %d got someone else's reply: %v", i, reply.Payload)
			}
		}()
	}
	wg.Wait()
}

func TestMuxCancellationDoesNotPoisonLink(t *testing.T) {
	center, station := Pipe(nil, nil)
	release := make(chan struct{})
	go echoStation(t, station, release)
	m := NewMux(center)
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := m.Roundtrip(ctx, wire.Message{Kind: wire.KindShipAll, Payload: []byte("hold")})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled roundtrip did not return")
	}

	// Let the stalled reply go out: the dispatcher must drop it (nobody is
	// waiting on its ID) and later exchanges must still work.
	close(release)
	reply, err := m.Roundtrip(context.Background(), wire.Message{Kind: wire.KindShipAll, Payload: []byte("after")})
	if err != nil {
		t.Fatalf("link poisoned after cancellation: %v", err)
	}
	if !bytes.Equal(reply.Payload, []byte("after")) {
		t.Fatalf("got stale reply %q", reply.Payload)
	}
}

func TestMuxCloseFailsPendingAndFuture(t *testing.T) {
	center, station := Pipe(nil, nil)
	go echoStation(t, station, make(chan struct{})) // never released: all "hold" requests stall
	m := NewMux(center)

	errc := make(chan error, 1)
	go func() {
		_, err := m.Roundtrip(context.Background(), wire.Message{Kind: wire.KindShipAll, Payload: []byte("hold")})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("pending roundtrip survived Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending roundtrip did not fail on Close")
	}
	if _, err := m.Roundtrip(context.Background(), wire.ShipAllMessage()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close roundtrip err = %v, want ErrClosed", err)
	}
	if m.Err() == nil {
		t.Fatal("Err() should report the failure")
	}
}

func TestMuxPeerDeathFailsPending(t *testing.T) {
	center, station := Pipe(nil, nil)
	m := NewMux(center)
	defer m.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := m.Roundtrip(context.Background(), wire.ShipAllMessage())
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	station.Close() // the station dies mid-exchange
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("roundtrip survived peer death")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("roundtrip did not fail on peer death")
	}
}

func TestMuxFireAndForgetUsesRequestZero(t *testing.T) {
	center, station := Pipe(nil, nil)
	m := NewMux(center)
	defer m.Close()
	if err := m.Send(wire.ShutdownMessage()); err != nil {
		t.Fatal(err)
	}
	got, err := station.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != wire.KindShutdown || got.Request != 0 {
		t.Fatalf("got %+v, want shutdown with request 0", got)
	}
}

func TestMuxRoundtripManyOrdersReplies(t *testing.T) {
	center, station := Pipe(nil, nil)
	go echoStation(t, station, nil)
	m := NewMux(center)
	defer m.Close()

	msgs := make([]wire.Message, 9)
	for i := range msgs {
		msgs[i] = wire.Message{Kind: wire.KindShipAll, Payload: []byte{byte(i + 1)}}
	}
	replies, err := m.RoundtripMany(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != len(msgs) {
		t.Fatalf("%d replies, want %d", len(replies), len(msgs))
	}
	for i, r := range replies {
		if !bytes.Equal(r.Payload, msgs[i].Payload) {
			t.Fatalf("reply %d out of order: got %v", i, r.Payload)
		}
	}
	// Empty input is a no-op, not an error.
	if replies, err := m.RoundtripMany(context.Background(), nil); err != nil || replies != nil {
		t.Fatalf("empty call: %v, %v", replies, err)
	}
}

func TestMuxRoundtripManyCancellation(t *testing.T) {
	center, station := Pipe(nil, nil)
	release := make(chan struct{})
	go echoStation(t, station, release)
	m := NewMux(center)
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := m.RoundtripMany(ctx, []wire.Message{
			{Kind: wire.KindShipAll, Payload: []byte("hold")},
			{Kind: wire.KindShipAll, Payload: []byte("second")},
		})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled RoundtripMany did not return")
	}

	// The abandoned replies must not poison later exchanges.
	close(release)
	reply, err := m.Roundtrip(context.Background(), wire.Message{Kind: wire.KindShipAll, Payload: []byte("after")})
	if err != nil || !bytes.Equal(reply.Payload, []byte("after")) {
		t.Fatalf("link poisoned: %v %v", reply.Payload, err)
	}
}

func TestMuxRoundtripManyPeerDeath(t *testing.T) {
	center, station := Pipe(nil, nil)
	m := NewMux(center)
	defer m.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := m.RoundtripMany(context.Background(), []wire.Message{
			wire.ShipAllMessage(), wire.ShipAllMessage(),
		})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	station.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("RoundtripMany survived peer death")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RoundtripMany did not fail on peer death")
	}
}
