// Package wire defines the binary message format exchanged between the
// data center and base stations. Every message knows its encoded size, which
// is what the communication-cost experiments (Figure 4c) meter: the paper's
// central claim is that shipping a filter out and (ID, weight) pairs back is
// orders of magnitude cheaper than shipping raw pattern data in.
//
// Frame layout, versions 2 and 3 (little endian):
//
//	magic     uint16  0xD1A7 ("DI-matching")
//	version   uint8   2 or 3
//	kind      uint8
//	requestID uint32  correlates a reply with the request that caused it
//	length    uint32  payload byte count
//	payload   [length]byte
//
// The request ID is what lets many searches share one link: the data center
// stamps every outgoing request with a fresh ID, stations echo it on their
// reply, and a per-link dispatcher routes each reply to the owning search.
// ID 0 is reserved for fire-and-forget frames (shutdown) that expect no
// reply. Version-1 frames (no requestID field) are still decoded — they read
// back with request ID 0 — so old peers can at least shut down cleanly.
//
// Version 3 keeps the version-2 header byte-for-byte and adds the batch
// kinds (KindBatchQuery, KindBatchReply), which pack a whole search round
// into one exchange. Those kinds exist only from version 3: a batch kind in
// a frame stamped 1 or 2 is rejected with ErrBadKind, and Encode stamps
// batch frames version 3 and everything else version 2, so pre-batch peers
// keep decoding the frames a modern peer sends them — with one deliberate
// exception: StatsReply gained an optional trailing capability byte (see
// MaxVersion) that pre-batch decoders reject as trailing garbage, so in a
// rolling upgrade the data center must upgrade before its stations (the
// modern center decodes both payload forms; an old center cannot handshake
// an upgraded station). The center's per-epoch stats exchange doubles as
// version discovery, and it falls back to per-query version-2 frames for
// stations that never advertised version 3. See docs/WIRE.md for the full
// negotiation rules.
//
// Version 4 repeats the pattern for the replication layer: the header is
// unchanged and the dump kinds (KindDump, KindDumpReply) — the coordinator
// pulling a surviving replica's raw patterns during re-replication — exist
// only from version 4. A dump kind in a frame stamped 3 or below is
// rejected with ErrBadKind, Encode stamps dump frames version 4, and the
// coordinator only sends KindDump to stations whose stats reply advertised
// MaxVersion >= 4; older stations can still receive the KindIngest push
// half of re-replication, they just cannot be pulled from.
//
// Version 5 adds the summary kinds (KindSummary, KindSummaryReply) the same
// way: the coordinator pulls a station's routing summary — a compact Bloom
// digest of the resident patterns' accumulated cells — and probes it before
// fanning a search out, skipping stations whose summary admits no possible
// match. A summary kind in a frame stamped 4 or below is rejected with
// ErrBadKind, Encode stamps summary frames version 5, and the coordinator
// only sends KindSummary to stations that advertised MaxVersion >= 5;
// pre-v5 stations are simply never pruned — every search still visits them.
//
// Version 6 adds the routing kinds (KindRouteQuery, KindRouteReply) for the
// multi-tier coordinator topology: a root coordinator delegates a whole
// search round — raw queries plus the knobs to process them identically — to
// a region coordinator, which runs the full search path over its own
// stations and answers with raw per-person weight sums the root merges and
// ranks. A route kind in a frame stamped 5 or below is rejected with
// ErrBadKind, Encode stamps route frames version 6, and the root only sends
// KindRouteQuery to peers whose stats reply advertised MaxVersion >= 6 with
// the route-delegate capability flag set (StatsReply.Flags); everything else
// is searched directly, never pruned. docs/ROUTING.md covers the topology.
//
// Version 7 adds the adaptive-parameter kinds (KindParamUpdate,
// KindParamAck) for traffic-adaptive routing digests: the coordinator
// derives a Daisy-style per-group parameter plan from its observed query
// mix (internal/adapt) and ships it to stations, which rebuild their
// routing digest under the plan — same memory budget, re-partitioned — and
// acknowledge with the parameter epoch. A parameter kind in a frame stamped
// 6 or below is rejected with ErrBadKind, Encode stamps parameter frames
// version 7, and the coordinator only sends KindParamUpdate to stations
// whose stats reply advertised MaxVersion >= 7 without the route-delegate
// flag; every other peer stays on the static table. Digests built under a
// plan self-describe their geometry in the KindSummaryReply payload (the
// hash-count field is 0 and a geometry table follows the words), so a
// received digest probes correctly whatever parameter epoch it came from.
//
// Payloads use unsigned varints for counts and small integers, raw 64-bit
// words for bit arrays.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Kind discriminates message payloads.
type Kind uint8

// Message kinds. The three query kinds correspond to the three strategies
// under evaluation (WBF, BF baseline, naive baseline).
const (
	// KindWBFQuery disseminates a Weighted Bloom Filter to stations.
	KindWBFQuery Kind = iota + 1
	// KindBFQuery disseminates a plain Bloom filter plus pipeline params.
	KindBFQuery
	// KindShipAll asks a station to ship its entire local dataset (naive).
	KindShipAll
	// KindReports carries (person, weight-pointers) matches to the center.
	KindReports
	// KindBFMatches carries bare person IDs (BF baseline has no weights).
	KindBFMatches
	// KindNaiveData carries raw (person, local pattern) tuples.
	KindNaiveData
	// KindFetch asks a station for specific persons' local patterns (the
	// verification phase); the station answers with KindNaiveData.
	KindFetch
	// KindShutdown tells a station loop to exit cleanly.
	KindShutdown
	// KindIngest adds (or replaces) resident patterns at a station; the
	// station answers with KindAck.
	KindIngest
	// KindEvict removes residents from a station; answered with KindAck.
	KindEvict
	// KindStats asks a station for its resident count and storage footprint;
	// answered with KindStatsReply.
	KindStats
	// KindStatsReply carries one station's resident count and storage bytes.
	KindStatsReply
	// KindAck acknowledges an applied mutation (ingest or evict).
	KindAck
	// KindBatchQuery packs one whole search round — the query-ID set and the
	// combined WBF covering all of them — into a single request (v3 only).
	KindBatchQuery
	// KindBatchReply answers a batch query with per-person reports covering
	// every query of the batch (v3 only).
	KindBatchReply
	// KindDump asks a station for the raw local patterns of specific persons
	// (or its whole store when the filter is empty) — the coordinator pulling
	// a surviving replica's copy during re-replication (v4 only).
	KindDump
	// KindDumpReply answers a dump with (person, local pattern) tuples plus
	// the reporting station's ID (v4 only).
	KindDumpReply
	// KindSummary asks a station for its routing summary — the Bloom digest
	// of its residents' accumulated cells the coordinator probes to prune
	// search fan-out (v5 only).
	KindSummary
	// KindSummaryReply carries one station's routing summary (v5 only).
	KindSummaryReply
	// KindRouteQuery delegates a whole search round — raw queries plus the
	// processing knobs — to a region coordinator, which fans it out over its
	// own stations (v6 only).
	KindRouteQuery
	// KindRouteReply answers a route query with the region's raw per-person
	// weight sums and routing counters (v6 only).
	KindRouteReply
	// KindParamUpdate ships an adaptive routing-digest parameter plan (or a
	// revert-to-static directive) to a station; the station rebuilds its
	// digest under the plan and answers with KindParamAck (v7 only).
	KindParamUpdate
	// KindParamAck acknowledges a parameter update, echoing the parameter
	// epoch and whether the plan was applied (v7 only).
	KindParamAck

	// maxKindV2 is the last kind a version-1/2 peer understands; the batch
	// kinds beyond it require version-3 frames, the dump kinds beyond those
	// require version-4 frames, the summary kinds version-5 frames, the
	// route kinds version-6 frames, and the parameter kinds version-7
	// frames.
	maxKindV2 = KindAck
	maxKindV3 = KindBatchReply
	maxKindV4 = KindDumpReply
	maxKindV5 = KindSummaryReply
	maxKindV6 = KindRouteReply
	maxKind   = KindParamAck
)

func (k Kind) String() string {
	switch k {
	case KindWBFQuery:
		return "wbf-query"
	case KindBFQuery:
		return "bf-query"
	case KindShipAll:
		return "ship-all"
	case KindReports:
		return "reports"
	case KindBFMatches:
		return "bf-matches"
	case KindNaiveData:
		return "naive-data"
	case KindFetch:
		return "fetch"
	case KindShutdown:
		return "shutdown"
	case KindIngest:
		return "ingest"
	case KindEvict:
		return "evict"
	case KindStats:
		return "stats"
	case KindStatsReply:
		return "stats-reply"
	case KindAck:
		return "ack"
	case KindBatchQuery:
		return "batch-query"
	case KindBatchReply:
		return "batch-reply"
	case KindDump:
		return "dump"
	case KindDumpReply:
		return "dump-reply"
	case KindSummary:
		return "summary"
	case KindSummaryReply:
		return "summary-reply"
	case KindRouteQuery:
		return "route-query"
	case KindRouteReply:
		return "route-reply"
	case KindParamUpdate:
		return "param-update"
	case KindParamAck:
		return "param-ack"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Protocol versions. Version1 frames lack the requestID field; Version2
// added it; Version3 added the batch kinds with an unchanged header;
// Version4 added the dump kinds, Version5 the summary kinds, Version6 the
// route kinds and Version7 the adaptive-parameter kinds, each again with an
// unchanged header. A receiver accepts any version up to Version7.
const (
	Version1 = uint8(1)
	Version2 = uint8(2)
	Version3 = uint8(3)
	Version4 = uint8(4)
	Version5 = uint8(5)
	Version6 = uint8(6)
	Version7 = uint8(7)
	// LatestVersion is the highest version this codec speaks — what a
	// station advertises in its StatsReply.
	LatestVersion = Version7
)

// kindFloors is the version-gating table: the lowest frame version each
// kind may travel in. A kind absent from this table does not exist, and a
// kind in a frame stamped below its floor is as unknown as kind 200 would
// be (ErrBadKind) — that is what stops an old peer from silently accepting
// a frame it cannot interpret. Every Kind constant MUST be registered here,
// in the String table, and below maxKind; the wirekind analyzer
// (cmd/di-lint) checks the first two mechanically and TestKindTablesInSync
// pins all three against each other at runtime.
var kindFloors = map[Kind]uint8{
	KindWBFQuery:     Version1,
	KindBFQuery:      Version1,
	KindShipAll:      Version1,
	KindReports:      Version1,
	KindBFMatches:    Version1,
	KindNaiveData:    Version1,
	KindFetch:        Version1,
	KindShutdown:     Version1,
	KindIngest:       Version1,
	KindEvict:        Version1,
	KindStats:        Version1,
	KindStatsReply:   Version1,
	KindAck:          Version1,
	KindBatchQuery:   Version3,
	KindBatchReply:   Version3,
	KindDump:         Version4,
	KindDumpReply:    Version4,
	KindSummary:      Version5,
	KindSummaryReply: Version5,
	KindRouteQuery:   Version6,
	KindRouteReply:   Version6,
	KindParamUpdate:  Version7,
	KindParamAck:     Version7,
}

// MinVersion returns the lowest frame version the kind may appear in, and
// false for kinds this codec does not know.
func MinVersion(k Kind) (uint8, bool) {
	v, ok := kindFloors[k]
	return v, ok
}

const (
	magic        = uint16(0xD1A7)
	headerSizeV1 = 8
	headerSize   = 12
	// MaxPayload bounds a single frame; large enough for city-scale naive
	// shipments, small enough to reject corrupt length fields.
	MaxPayload = 1 << 30
	// MaxBatchQueries bounds the query count of one batch frame, so a
	// corrupt count is rejected before any allocation.
	MaxBatchQueries = 4096
)

// Errors returned by frame decoding.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadKind    = errors.New("wire: unknown message kind")
	ErrTruncated  = errors.New("wire: truncated message")
	ErrOversized  = errors.New("wire: payload exceeds limit")
	// ErrBatchTooLarge rejects a batch frame declaring more than
	// MaxBatchQueries queries (or an encode request exceeding it).
	ErrBatchTooLarge = errors.New("wire: batch query count exceeds limit")
	// ErrBatchMismatch rejects a batch payload whose parts disagree — a
	// weight entry referencing a query the batch never declared.
	ErrBatchMismatch = errors.New("wire: batch payload inconsistent")
	errShortBuffer   = errors.New("wire: short buffer")
)

// Message is one framed unit on a link. Request correlates a reply with the
// request that caused it; 0 marks fire-and-forget frames. Version records
// the frame version a decoded message arrived in (0 on locally constructed
// messages, where Encode picks the version from the kind).
type Message struct {
	Kind    Kind
	Request uint32
	Version uint8
	Payload []byte
}

// WithRequest returns a copy of the message stamped with the given request
// ID. The payload is shared, not copied.
func (m Message) WithRequest(id uint32) Message {
	m.Request = id
	return m
}

// EncodedSize returns the full frame size in bytes — the unit the cost
// meters count.
func (m Message) EncodedSize() int { return headerSize + len(m.Payload) }

// encodeVersion resolves the version byte a frame is stamped with: the
// kind's gating floor (kindFloors) is the minimum — parameter kinds version
// 7, route kinds version 6, summary kinds version 5, dump kinds version 4,
// batch kinds version 3 — and everything else defaults to version 2 so
// pre-batch peers keep decoding it. An explicit Version in [2,7] overrides
// the default (but never below a kind's floor); version-1 encoding is not
// supported — v1 is a decode-compatibility floor only.
func (m Message) encodeVersion() uint8 {
	v := m.Version
	if v < Version2 || v > LatestVersion {
		v = Version2
	}
	if floor, ok := kindFloors[m.Kind]; ok && v < floor {
		v = floor
	}
	return v
}

// Encode renders the frame. Parameter kinds are stamped version 7, route
// kinds version 6, summary kinds version 5, dump kinds version 4, batch
// kinds version 3, everything else version 2 (see encodeVersion).
func (m Message) Encode() []byte {
	out := make([]byte, 0, headerSize+len(m.Payload))
	return m.AppendFrame(out)
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice — the pooled-buffer variant of Encode for send paths that reuse one
// buffer across frames (transport's TCP link). With sufficient capacity it
// performs no allocation.
//
//dimatch:noalloc
func (m Message) AppendFrame(dst []byte) []byte {
	buf := dst[:len(dst)]
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint16(hdr[0:2], magic)
	hdr[2] = m.encodeVersion()
	hdr[3] = uint8(m.Kind)
	binary.LittleEndian.PutUint32(hdr[4:8], m.Request)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(m.Payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, m.Payload...)
}

// parseHeader validates the fixed fields shared by Decode and ReadMessage.
// It returns the decoded kind/request/length plus the version's header size.
func parseHeader(hdr []byte) (kind Kind, request uint32, n uint32, version uint8, size int, err error) {
	if binary.LittleEndian.Uint16(hdr[0:2]) != magic {
		return 0, 0, 0, 0, 0, ErrBadMagic
	}
	version = hdr[2]
	switch version {
	case Version2, Version3, Version4, Version5, Version6, Version7:
		size = headerSize
		request = binary.LittleEndian.Uint32(hdr[4:8])
		n = binary.LittleEndian.Uint32(hdr[8:12])
	case Version1:
		size = headerSizeV1
		n = binary.LittleEndian.Uint32(hdr[4:8])
	default:
		return 0, 0, 0, 0, 0, ErrBadVersion
	}
	kind = Kind(hdr[3])
	// The batch kinds exist only from version 3, the dump kinds only from
	// version 4, the summary kinds only from version 5, the route kinds only
	// from version 6 and the parameter kinds only from version 7
	// (kindFloors): a newer kind in an older frame is as unknown as kind 200
	// would be.
	if floor, ok := kindFloors[kind]; !ok || version < floor {
		return 0, 0, 0, 0, 0, ErrBadKind
	}
	if n > MaxPayload {
		return 0, 0, 0, 0, 0, ErrOversized
	}
	return kind, request, n, version, size, nil
}

// Decode parses a frame from b, which must contain exactly one frame.
// Frames of any version up to Version7 are accepted; the version is
// recorded on the returned message.
func Decode(b []byte) (Message, error) {
	if len(b) < headerSizeV1 {
		return Message{}, ErrTruncated
	}
	hdr := b
	if len(hdr) > headerSize {
		hdr = hdr[:headerSize]
	}
	if len(hdr) < headerSize && len(b) >= 3 && b[2] >= Version2 {
		return Message{}, ErrTruncated
	}
	kind, request, n, version, size, err := parseHeader(hdr)
	if err != nil {
		return Message{}, err
	}
	if len(b) != size+int(n) {
		return Message{}, ErrTruncated
	}
	payload := make([]byte, n)
	copy(payload, b[size:])
	return Message{Kind: kind, Request: request, Version: version, Payload: payload}, nil
}

// WriteMessage writes one frame to w.
func WriteMessage(w io.Writer, m Message) error {
	_, err := w.Write(m.Encode())
	return err
}

// ReadMessage reads exactly one frame from r, accepting frames of any
// version up to Version7.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [headerSize]byte
	// Read the version-1 prefix first: all layouts share magic, version and
	// kind, and a v1 frame may legitimately end 4 bytes before a v2/v3
	// header would.
	if _, err := io.ReadFull(r, hdr[:headerSizeV1]); err != nil {
		return Message{}, err
	}
	if binary.LittleEndian.Uint16(hdr[0:2]) != magic {
		return Message{}, ErrBadMagic
	}
	if hdr[2] >= Version2 {
		if _, err := io.ReadFull(r, hdr[headerSizeV1:]); err != nil {
			return Message{}, fmt.Errorf("%w: %v", ErrTruncated, err)
		}
	}
	kind, request, n, version, _, err := parseHeader(hdr[:])
	if err != nil {
		return Message{}, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return Message{Kind: kind, Request: request, Version: version, Payload: payload}, nil
}

// ---- payload buffer helpers ----

// writer accumulates a payload.
type writer struct {
	buf []byte
}

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) u8(v uint8) { w.buf = append(w.buf, v) }

func (w *writer) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// reader consumes a payload, remembering the first error.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(errShortBuffer)
		return 0
	}
	r.off += n
	return v
}

// skipUvarints advances past n uvarints without decoding them: each ends
// at its first byte below 0x80. Whoever reads the same bytes for real
// still validates every value.
func (r *reader) skipUvarints(n int) {
	if r.err != nil || n == 0 {
		return
	}
	for i, b := range r.buf[r.off:] {
		if b < 0x80 {
			if n--; n == 0 {
				r.off += i + 1
				return
			}
		}
	}
	r.fail(errShortBuffer)
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(errShortBuffer)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail(errShortBuffer)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// count reads a length prefix and sanity-checks it against a per-element
// minimum size, so corrupt counts cannot trigger huge allocations.
func (r *reader) count(minElemBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	remaining := len(r.buf) - r.off
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if v > uint64(remaining/minElemBytes)+1 {
		r.fail(fmt.Errorf("wire: count %d implausible for %d remaining bytes", v, remaining))
		return 0
	}
	return int(v)
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}
