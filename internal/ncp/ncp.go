// Package ncp implements the Net Compute Protocol of §3.2: the window
// transport that also carries kernel execution context. An NCP packet
// identifies the kernel to execute, the window's sequence number and
// shape, the sender and its role, user-attached window-struct fields
// (§4.2), and the window payload (array chunks in parameter order).
//
// Fig. 3b of the paper: a switch executes a kernel only when NCP is
// recognized; everything else is forwarded normally. IsNCP is that
// recognition test.
//
// The early-prototype scope of §6 (one window per packet) is the fast
// path; multi-packet windows are supported through the fragment fields
// and reassembled by the host runtime (switches only execute kernels on
// single-fragment windows, matching the paper's discussion of the
// challenges of multi-packet windows).
package ncp

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// Wire constants.
const (
	// Magic identifies NCP packets ("NC").
	Magic = 0x4E43
	// Version is the current wire version.
	Version = 1
	// HeaderSize is the fixed header length in bytes (user fields and
	// payload follow).
	HeaderSize = 36
	// MaxUserFields bounds user window-struct extensions per packet.
	MaxUserFields = 15
)

// Flags.
const (
	// FlagReflected marks a window traveling back toward its sender
	// (_reflect), so hosts can distinguish replies from pass-through.
	FlagReflected = 1 << 0
	// FlagBcast marks a window produced by a _bcast decision.
	FlagBcast = 1 << 1
	// FlagAckRequest asks the destination host's runtime to acknowledge
	// the window (the reliable-delivery extension; see runtime.OutReliable).
	FlagAckRequest = 1 << 2
	// FlagAck marks an acknowledgment for windows of invocation Wid
	// starting at WindowSeq. An empty payload acknowledges exactly that
	// window; an 8-byte payload is a bitmap of the 63 windows after it
	// (see AckRange). Switches forward acks without executing kernels.
	FlagAck = 1 << 3
	// FlagTrace marks a window carrying in-band hop records (the
	// observability extension over the §4.2 user-field space): every host
	// and switch the window traverses appends a packed (location, event,
	// vtime) record, and the receiver reassembles them into a trace.
	FlagTrace = 1 << 4
	// FlagExactlyOnce marks a reliable window targeting a non-idempotent
	// (state-mutating) kernel: switches consult their per-slot shadow
	// state before executing, so a retransmitted window's stateful ops
	// become no-ops instead of double-applying. Set by the runtime when
	// OutReliable targets such a kernel; meaningful only with
	// FlagAckRequest.
	FlagExactlyOnce = 1 << 5
)

// KnownFlags is the set of flag bits this wire version understands.
// Decode rejects packets with any other bit set (forward-compat guard:
// an unknown flag may change packet layout, as FlagTrace does).
const KnownFlags = FlagReflected | FlagBcast | FlagAckRequest | FlagAck | FlagTrace | FlagExactlyOnce

// flagNames lists flag bits in wire order for FlagNames.
var flagNames = []struct {
	bit  uint8
	name string
}{
	{FlagReflected, "reflected"},
	{FlagBcast, "bcast"},
	{FlagAckRequest, "ack-req"},
	{FlagAck, "ack"},
	{FlagTrace, "trace"},
	{FlagExactlyOnce, "exactly-once"},
}

// FlagNames renders the header's flag bits as a "|"-separated name list
// ("none" when no flag is set), for trace and metric output instead of
// raw hex. Unknown bits render as "unknown(0xNN)".
func (h *Header) FlagNames() string {
	if h.Flags == 0 {
		return "none"
	}
	var parts []string
	rest := h.Flags
	for _, f := range flagNames {
		if rest&f.bit != 0 {
			parts = append(parts, f.name)
			rest &^= f.bit
		}
	}
	if rest != 0 {
		parts = append(parts, fmt.Sprintf("unknown(%#02x)", rest))
	}
	return strings.Join(parts, "|")
}

// Header is the NCP packet header.
type Header struct {
	Version    uint8
	Flags      uint8
	KernelID   uint32
	WindowSeq  uint32
	WindowLen  uint16 // elements per array parameter in this window
	Sender     uint32 // originating host id
	FromRole   uint32 // sender's role (window.from in kernels)
	Wid        uint32 // invocation id
	FragIdx    uint16 // fragment index within a multi-packet window
	FragCount  uint16 // total fragments (1 = single-packet window)
	UserCount  uint8  // number of user window-field values following
	BatchCount uint8  // windows in this packet (0/1 = one; §4.2: "a packet can carry one or more windows"); consecutive seqs starting at WindowSeq
	Checksum   uint16
	PayloadLen uint16
}

// AckSpan is how many consecutive windows one acknowledgment can cover:
// the base window in the header plus the 63 bitmap bits.
const AckSpan = 64

// AppendAckRange encodes the payload of an acknowledgment whose header
// names the base window: bit i of more acknowledges window base+1+i.
// more == 0 encodes as the empty payload, so a single-window ack is the
// degenerate range.
func AppendAckRange(dst []byte, more uint64) []byte {
	if more == 0 {
		return dst
	}
	return binary.BigEndian.AppendUint64(dst, more)
}

// AckRange decodes an acknowledgment's payload into the bitmap of
// windows acknowledged beyond the base one. Any length but 0 or 8 is
// malformed.
func AckRange(payload []byte) (more uint64, ok bool) {
	switch len(payload) {
	case 0:
		return 0, true
	case 8:
		return binary.BigEndian.Uint64(payload), true
	}
	return 0, false
}

// ErrNotNCP reports a packet that is not NCP traffic.
var ErrNotNCP = fmt.Errorf("ncp: not an NCP packet")

// IsNCP reports whether pkt begins with the NCP magic (Fig. 3b's
// recognition test).
func IsNCP(pkt []byte) bool {
	return len(pkt) >= HeaderSize && binary.BigEndian.Uint16(pkt[0:2]) == Magic
}

// Marshal serializes the header, user field values, and payload into a
// single packet. The header's UserCount, PayloadLen, and Checksum are set
// from the arguments.
func Marshal(h *Header, userVals []uint64, payload []byte) ([]byte, error) {
	return MarshalHops(h, userVals, nil, payload)
}

// MarshalHops is Marshal with an in-band hop trace. When hops is
// non-empty (or FlagTrace already set), the packet carries a trace
// section in the user-field space: a one-byte hop count followed by one
// packed 8-byte record per hop, between the user values and the payload.
func MarshalHops(h *Header, userVals []uint64, hops []Hop, payload []byte) ([]byte, error) {
	return AppendHops(nil, h, userVals, hops, payload)
}

// MarshalLen is the length of the packet MarshalHops builds from the same
// arguments: a caller sizes a buffer with it and encodes with AppendHops.
func MarshalLen(h *Header, userVals []uint64, hops []Hop, payload []byte) int {
	n := HeaderSize + 8*len(userVals) + len(payload)
	if len(hops) > 0 || h.Flags&FlagTrace != 0 {
		n += 1 + HopRecordBytes*min(len(hops), MaxHops)
	}
	return n
}

// AppendHops is MarshalHops appending the packet to dst: into dst's spare
// capacity when it holds MarshalLen bytes, so the encode allocates nothing.
func AppendHops(dst []byte, h *Header, userVals []uint64, hops []Hop, payload []byte) ([]byte, error) {
	if len(userVals) > MaxUserFields {
		return nil, fmt.Errorf("ncp: %d user fields exceed the maximum of %d", len(userVals), MaxUserFields)
	}
	if len(payload) > 0xFFFF {
		return nil, fmt.Errorf("ncp: payload of %d bytes exceeds 64KiB", len(payload))
	}
	if len(hops) > MaxHops {
		hops = hops[len(hops)-MaxHops:] // keep the most recent hops
	}
	if len(hops) > 0 {
		h.Flags |= FlagTrace
	}
	h.Version = Version
	h.UserCount = uint8(len(userVals))
	h.PayloadLen = uint16(len(payload))
	base, n := len(dst), MarshalLen(h, userVals, hops, payload)
	dst = slices.Grow(dst, n)[:base+n]
	buf := dst[base:]
	be := binary.BigEndian
	be.PutUint16(buf[0:2], Magic)
	buf[2] = Version
	buf[3] = h.Flags
	be.PutUint32(buf[4:8], h.KernelID)
	be.PutUint32(buf[8:12], h.WindowSeq)
	be.PutUint16(buf[12:14], h.WindowLen)
	be.PutUint32(buf[14:18], h.Sender)
	be.PutUint32(buf[18:22], h.FromRole)
	be.PutUint32(buf[22:26], h.Wid)
	be.PutUint16(buf[26:28], h.FragIdx)
	be.PutUint16(buf[28:30], h.FragCount)
	buf[30] = h.UserCount
	if h.BatchCount == 0 {
		h.BatchCount = 1
	}
	buf[31] = h.BatchCount
	// checksum at [32:34] filled last
	be.PutUint16(buf[34:36], h.PayloadLen)
	off := HeaderSize
	for _, v := range userVals {
		be.PutUint64(buf[off:off+8], v)
		off += 8
	}
	if h.Flags&FlagTrace != 0 {
		buf[off] = uint8(len(hops))
		off++
		for _, hop := range hops {
			be.PutUint64(buf[off:off+8], hop.Pack())
			be.PutUint64(buf[off+8:off+16], hop.PackINT())
			off += HopRecordBytes
		}
	}
	copy(buf[off:], payload)
	h.Checksum = checksum(buf) // skips the field, whatever dst's spare bytes held
	be.PutUint16(buf[32:34], h.Checksum)
	return dst, nil
}

// Decode parses an NCP packet, verifying magic, version, structure, and
// checksum. The returned payload aliases pkt. Hop records of traced
// windows are discarded; use DecodeFull to keep them.
func Decode(pkt []byte) (*Header, []uint64, []byte, error) {
	h, userVals, _, payload, err := DecodeFull(pkt)
	return h, userVals, payload, err
}

// DecodeFull parses an NCP packet including any in-band hop trace,
// verifying magic, version, known flags, structure, and checksum. The
// returned payload aliases pkt; user values and hops are freshly
// allocated. Hot receive paths should prefer DecodeFullInto, which
// reuses one Decoded scratch struct across packets.
func DecodeFull(pkt []byte) (*Header, []uint64, []Hop, []byte, error) {
	var d Decoded
	if err := DecodeFullInto(pkt, &d); err != nil {
		return nil, nil, nil, nil, err
	}
	h := new(Header)
	*h = d.Header
	var userVals []uint64
	if len(d.User) > 0 {
		userVals = append(userVals, d.User...)
	}
	var hops []Hop
	if len(d.Hops) > 0 {
		hops = append(hops, d.Hops...)
	}
	return h, userVals, hops, d.Payload, nil
}

// Decoded is a reusable decode target for DecodeFullInto: the zero-copy
// mode of DecodeFull. User and Hops are backed by scratch slices owned by
// the struct (valid until the next DecodeFullInto on it); Payload aliases
// the decoded packet. Consumers that retain any of the three past the
// next decode must copy.
type Decoded struct {
	Header  Header
	User    []uint64
	Hops    []Hop
	Payload []byte
}

// DecodeFullInto parses an NCP packet into d without allocating in
// steady state: the header is written in place, user values and hop
// records reuse d's scratch slices, and the payload aliases pkt. It
// performs the same magic/version/flag/structure/checksum validation as
// DecodeFull.
func DecodeFullInto(pkt []byte, d *Decoded) error {
	d.User = d.User[:0]
	d.Hops = d.Hops[:0]
	d.Payload = nil
	if !IsNCP(pkt) {
		return ErrNotNCP
	}
	be := binary.BigEndian
	h := &d.Header
	*h = Header{
		Version:    pkt[2],
		Flags:      pkt[3],
		KernelID:   be.Uint32(pkt[4:8]),
		WindowSeq:  be.Uint32(pkt[8:12]),
		WindowLen:  be.Uint16(pkt[12:14]),
		Sender:     be.Uint32(pkt[14:18]),
		FromRole:   be.Uint32(pkt[18:22]),
		Wid:        be.Uint32(pkt[22:26]),
		FragIdx:    be.Uint16(pkt[26:28]),
		FragCount:  be.Uint16(pkt[28:30]),
		UserCount:  pkt[30],
		BatchCount: pkt[31],
		Checksum:   be.Uint16(pkt[32:34]),
		PayloadLen: be.Uint16(pkt[34:36]),
	}
	if h.Version != Version {
		return fmt.Errorf("ncp: unsupported version %d", h.Version)
	}
	if unknown := h.Flags &^ KnownFlags; unknown != 0 {
		return fmt.Errorf("ncp: unknown flag bits %#02x (known: %#02x)", unknown, uint8(KnownFlags))
	}
	if h.UserCount > MaxUserFields {
		// MarshalHops never writes one: a switch could not re-emit it.
		return fmt.Errorf("ncp: %d user fields exceed the maximum of %d", h.UserCount, MaxUserFields)
	}
	want := HeaderSize + 8*int(h.UserCount) + int(h.PayloadLen)
	traceOff := HeaderSize + 8*int(h.UserCount)
	nHops := 0
	if h.Flags&FlagTrace != 0 {
		if len(pkt) < traceOff+1 {
			return fmt.Errorf("ncp: truncated packet: no room for the trace count")
		}
		nHops = int(pkt[traceOff])
		want += 1 + HopRecordBytes*nHops
	}
	if len(pkt) < want {
		return fmt.Errorf("ncp: truncated packet: %d bytes, header implies %d", len(pkt), want)
	}
	if got := checksum(pkt[:want]); got != h.Checksum {
		return fmt.Errorf("ncp: checksum mismatch (%#04x != %#04x)", got, h.Checksum)
	}
	off := HeaderSize
	for i := 0; i < int(h.UserCount); i++ {
		d.User = append(d.User, be.Uint64(pkt[off:off+8]))
		off += 8
	}
	if h.Flags&FlagTrace != 0 {
		off++ // hop count byte
		for i := 0; i < nHops; i++ {
			d.Hops = append(d.Hops, UnpackHop(be.Uint64(pkt[off:off+8]), be.Uint64(pkt[off+8:off+16])))
			off += HopRecordBytes
		}
	}
	d.Payload = pkt[off : off+int(h.PayloadLen)]
	return nil
}

// Reseal finishes an in-place edit of a packet DecodeFullInto accepted —
// the switch's way of forwarding a window in the bytes it arrived in. It
// trims pkt to the length its header implies, stores flags (which must
// keep the packet's FlagTrace bit), writes a batch count of 0 as the 1 it
// means and recomputes the checksum: the result is the packet MarshalHops
// builds from the same header, user values, hops and payload.
func Reseal(pkt []byte, flags uint8) []byte {
	be := binary.BigEndian
	off := HeaderSize + 8*int(pkt[30])
	n := off + int(be.Uint16(pkt[34:36]))
	if pkt[3]&FlagTrace != 0 {
		n += 1 + HopRecordBytes*int(pkt[off])
	}
	pkt = pkt[:n]
	pkt[3] = flags
	if pkt[31] == 0 {
		pkt[31] = 1
	}
	be.PutUint16(pkt[32:34], checksum(pkt))
	return pkt
}

// checksum computes the 16-bit one's-complement sum over buf with the
// checksum field (bytes 32-33) left out. It adds 32-bit halves of 64-bit
// words and folds once at the end: 2^16 ≡ 1 modulo 0xFFFF, so the folded
// sum is the one 16-bit words give, and the field's offset is even, so
// summing the bytes before and after it keeps every word aligned.
func checksum(buf []byte) uint16 {
	var sum uint64
	if len(buf) >= 34 {
		sum = sumWords(buf[:32]) + sumWords(buf[34:])
	} else {
		sum = sumWords(buf)
	}
	for sum > 0xFFFF {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// sumWords adds buf as big-endian 16-bit words (a trailing odd byte is
// the high half of a word) without folding carries.
func sumWords(buf []byte) (sum uint64) {
	be := binary.BigEndian
	for ; len(buf) >= 8; buf = buf[8:] {
		v := be.Uint64(buf)
		sum += v>>32 + v&0xFFFFFFFF
	}
	for ; len(buf) >= 2; buf = buf[2:] {
		sum += uint64(be.Uint16(buf))
	}
	if len(buf) == 1 {
		sum += uint64(buf[0]) << 8
	}
	return sum
}

// ---------------------------------------------------------------------------
// Window payload encoding

// ParamSpec describes one window parameter's wire shape.
type ParamSpec struct {
	Elems  int // elements in this window
	Bytes  int // bytes per element
	Signed bool
}

// PayloadSize returns the encoded byte size for the given specs.
func PayloadSize(specs []ParamSpec) int {
	n := 0
	for _, s := range specs {
		n += s.Elems * s.Bytes
	}
	return n
}

// EncodePayload serializes window data (canonical 64-bit values, one
// slice per parameter) into big-endian wire form.
func EncodePayload(data [][]uint64, specs []ParamSpec) ([]byte, error) {
	return AppendPayload(nil, data, specs)
}

// AppendPayload is EncodePayload into a caller-provided buffer: the
// encoded window is appended to dst and the extended slice returned.
// Hot send paths pass pooled scratch (dst[:0]) so encoding allocates
// nothing in steady state; batching callers append several windows into
// one buffer.
func AppendPayload(dst []byte, data [][]uint64, specs []ParamSpec) ([]byte, error) {
	if len(data) != len(specs) {
		return nil, fmt.Errorf("ncp: %d data arrays for %d parameters", len(data), len(specs))
	}
	base := len(dst)
	need := PayloadSize(specs)
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+need]
	off := base
	for pi, s := range specs {
		if len(data[pi]) != s.Elems {
			return nil, fmt.Errorf("ncp: parameter %d has %d elements, spec says %d", pi, len(data[pi]), s.Elems)
		}
		for _, v := range data[pi] {
			putBE(dst[off:off+s.Bytes], v)
			off += s.Bytes
		}
	}
	return dst, nil
}

// DecodePayload parses wire form back into canonical 64-bit values
// (sign-extending signed element types).
func DecodePayload(payload []byte, specs []ParamSpec) ([][]uint64, error) {
	return DecodePayloadInto(nil, payload, specs)
}

// DecodePayloadInto is DecodePayload into caller-provided buffers: dst's
// backing arrays are reused when they fit, so hot receive paths passing
// pooled scratch decode without allocating in steady state. The returned
// slice (len(specs)) aliases dst's storage where possible.
func DecodePayloadInto(dst [][]uint64, payload []byte, specs []ParamSpec) ([][]uint64, error) {
	if len(payload) != PayloadSize(specs) {
		return dst, fmt.Errorf("ncp: payload is %d bytes, specs imply %d", len(payload), PayloadSize(specs))
	}
	if cap(dst) < len(specs) {
		grown := make([][]uint64, len(specs))
		copy(grown, dst[:cap(dst)])
		dst = grown
	}
	dst = dst[:len(specs)]
	off := 0
	for pi, s := range specs {
		vals := dst[pi]
		if cap(vals) < s.Elems {
			vals = make([]uint64, s.Elems)
		}
		vals = vals[:s.Elems]
		for i := 0; i < s.Elems; i++ {
			v := getBE(payload[off : off+s.Bytes])
			if s.Signed {
				v = signExtend(v, s.Bytes*8)
			}
			vals[i] = v
			off += s.Bytes
		}
		dst[pi] = vals
	}
	return dst, nil
}

func putBE(b []byte, v uint64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func getBE(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

func signExtend(v uint64, bits int) uint64 {
	if bits >= 64 {
		return v
	}
	sign := uint64(1) << (bits - 1)
	if v&sign != 0 {
		v |= ^uint64(0) << bits
	}
	return v
}
