package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	m := Message{Kind: KindBatchReply, Request: 7, Payload: []byte{1, 2, 3}}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Request != 7 || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
	if m.EncodedSize() != len(m.Encode()) {
		t.Fatal("EncodedSize disagrees with Encode")
	}
}

func TestWithRequest(t *testing.T) {
	m := Message{Kind: KindShipAll}.WithRequest(41)
	if m.Request != 41 {
		t.Fatalf("Request = %d", m.Request)
	}
	got, err := Decode(m.Encode())
	if err != nil || got.Request != 41 {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}

// TestDecodeVersion1Frame: a version-1 frame (8-byte header, no request
// ID) is rejected with ErrBadVersion by both decoders, not misread as a
// 12-byte header.
func TestDecodeVersion1Frame(t *testing.T) {
	payload := []byte("v1")
	v1 := make([]byte, 8+len(payload))
	v1[0] = 0xA7
	v1[1] = 0xD1
	v1[2] = 1
	v1[3] = uint8(KindBatchReply)
	v1[4] = uint8(len(payload))
	copy(v1[8:], payload)

	if _, err := Decode(v1); !errors.Is(err, ErrTruncated) {
		t.Fatalf("10-byte v1 frame: err = %v, want ErrTruncated", err)
	}
	long := append(append([]byte(nil), v1...), 0, 0, 0, 0)
	if _, err := Decode(long); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v1 frame: err = %v, want ErrBadVersion", err)
	}
	if _, err := ReadMessage(bytes.NewReader(long)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v1 stream: err = %v, want ErrBadVersion", err)
	}
}

func TestFrameErrors(t *testing.T) {
	good := Message{Kind: KindShipAll}.Encode()

	tests := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{name: "short", mutate: func(b []byte) []byte { return b[:4] }, want: ErrTruncated},
		{name: "bad magic", mutate: func(b []byte) []byte { b[0] = 0; return b }, want: ErrBadMagic},
		{name: "bad version", mutate: func(b []byte) []byte { b[2] = 9; return b }, want: ErrBadVersion},
		{name: "zero kind", mutate: func(b []byte) []byte { b[3] = 0; return b }, want: ErrBadKind},
		{name: "unknown kind", mutate: func(b []byte) []byte { b[3] = 200; return b }, want: ErrBadKind},
		{name: "length mismatch", mutate: func(b []byte) []byte { b[8] = 5; return b }, want: ErrTruncated},
		{name: "truncated v2 header", mutate: func(b []byte) []byte { return b[:10] }, want: ErrTruncated},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			if _, err := Decode(tt.mutate(b)); !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestReadWriteMessage(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Kind: KindShipAll, Request: 1},
		{Kind: KindBatchReply, Request: 2, Payload: []byte("abc")},
		{Kind: KindShutdown},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.Request != want.Request || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("expected EOF-ish error on empty stream")
	}
}

func TestReadMessageRejectsGarbage(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(1); k <= maxKind; k++ {
		if k.String() == "" || k.String()[0] == 'K' {
			t.Fatalf("kind %d missing name: %q", k, k.String())
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestPropertyFrameRoundTrip(t *testing.T) {
	f := func(kindRaw uint8, request uint32, payload []byte) bool {
		kind := Kind(kindRaw%uint8(maxKind)) + 1
		m := Message{Kind: kind, Request: request, Payload: payload}
		got, err := Decode(m.Encode())
		return err == nil && got.Kind == kind && got.Request == request && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round-tripped to %d", v, got)
		}
	}
}

func TestReaderGuards(t *testing.T) {
	// A count field claiming more elements than the buffer could hold must
	// be rejected rather than allocated.
	var w writer
	w.uvarint(1 << 40)
	r := &reader{buf: w.buf}
	if r.count(8); r.err == nil {
		t.Fatal("implausible count accepted")
	}

	// Truncated varint.
	r = &reader{buf: []byte{0x80}}
	if r.uvarint(); r.err == nil {
		t.Fatal("truncated varint accepted")
	}

	// Short u64 / u8.
	r = &reader{buf: []byte{1, 2}}
	if r.u64(); r.err == nil {
		t.Fatal("short u64 accepted")
	}
	r = &reader{buf: nil}
	if r.u8(); r.err == nil {
		t.Fatal("u8 on empty accepted")
	}

	// Trailing bytes.
	r = &reader{buf: []byte{1, 2}}
	r.u8()
	if err := r.done(); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
