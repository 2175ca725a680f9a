package ncp

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// checksum16 is the 16-bit loop checksum replaced, kept as its oracle.
func checksum16(buf []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(buf); i += 2 {
		if i == 32 {
			continue // checksum field
		}
		sum += uint32(binary.BigEndian.Uint16(buf[i : i+2]))
	}
	if len(buf)%2 == 1 {
		sum += uint32(buf[len(buf)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// examplePackets marshals the windows examples/ put on the wire, one per
// shape: quickstart's and allreduce's int arrays (the switch's broadcast
// result too), hierarchical's array plus bool, the kvcache GET and its
// reflected hit, telemetry's traced flow record, a reliable exactly-once
// window, a range ack, a two-window batch and a fragment.
func examplePackets(t testing.TB) [][]byte {
	ints := func(n int) []byte {
		b := make([]byte, 4*n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}
	kvs := append(append(make([]byte, 8), bytes.Repeat([]byte{'v'}, 16)...), 1)
	shapes := []struct {
		h       Header
		user    []uint64
		hops    []Hop
		payload []byte
	}{
		{Header{KernelID: 1, WindowLen: 4, Sender: 1, Wid: 1}, nil, nil, ints(4)},
		{Header{KernelID: 1, WindowLen: 8, WindowSeq: 3, Sender: 2, Wid: 7}, nil, nil, ints(8)},
		{Header{Flags: FlagBcast, KernelID: 1, WindowLen: 8, WindowSeq: 3, Sender: 2, Wid: 7}, nil, nil, ints(8)},
		{Header{KernelID: 2, WindowLen: 8, Sender: 3, Wid: 2}, nil, nil, append(ints(8), 1)},
		{Header{KernelID: 1, WindowLen: 16, Sender: 4, FromRole: 1, Wid: 9}, nil, nil, kvs},
		{Header{Flags: FlagReflected, KernelID: 1, WindowLen: 16, Sender: 4, FromRole: 1, Wid: 9}, nil, nil, kvs},
		{Header{KernelID: 1, WindowLen: 1, Sender: 1, Wid: 3}, []uint64{42, 7}, []Hop{
			{Loc: 1, Event: EventSend, TimeNs: 1000},
			{Loc: 1, Kind: HopSwitch, Event: EventExec, TimeNs: 2000, LatencyNs: 1000, QueueDepth: 3, KernelID: 1},
		}, ints(3)},
		{Header{Flags: FlagAckRequest | FlagExactlyOnce, KernelID: 1, WindowLen: 8, WindowSeq: 9, Sender: 1, Wid: 4}, nil, nil, ints(8)},
		{Header{Flags: FlagAck, KernelID: 1, WindowLen: 8, WindowSeq: 9, Sender: 1, Wid: 4}, nil, nil, AppendAckRange(nil, 0b1011)},
		{Header{KernelID: 1, WindowLen: 8, Sender: 1, Wid: 5, BatchCount: 2}, nil, nil, ints(16)},
		{Header{KernelID: 1, WindowLen: 8, Sender: 1, Wid: 6, FragIdx: 1, FragCount: 2}, nil, nil, ints(5)},
	}
	var out [][]byte
	for _, s := range shapes {
		h := s.h
		if h.FragCount == 0 {
			h.FragCount = 1
		}
		pkt, err := MarshalHops(&h, s.user, s.hops, s.payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pkt)
	}
	return out
}

// FuzzNCPPacket holds the decoder and the switch's in-place edit to the
// marshaller: DecodeFullInto never panics; checksum agrees with the 16-bit
// loop on any bytes; an untraced packet that decodes re-marshals to its own
// bytes (trimmed to the length its header implies), also appended into a
// MarshalLen-sized buffer of junk; and a flag edit sealed by Reseal decodes
// with the new flags and nothing else changed.
func FuzzNCPPacket(f *testing.F) {
	for i, pkt := range examplePackets(f) {
		f.Add(pkt, uint8(i))
		f.Add(append(append([]byte(nil), pkt...), 0xEE, 0xEE, 0xEE), uint8(FlagReflected))
	}
	f.Fuzz(func(t *testing.T, pkt []byte, flags uint8) {
		if got, want := checksum(pkt), checksum16(pkt); got != want {
			t.Fatalf("checksum(% x) = %#04x, the 16-bit loop says %#04x", pkt, got, want)
		}
		var d Decoded
		if DecodeFullInto(pkt, &d) != nil {
			return
		}
		// The payload is the packet's last section: its end is the length
		// the header implies, past which a forwarded packet carries nothing.
		want := append([]byte(nil), pkt[:cap(pkt)-cap(d.Payload)+len(d.Payload)]...)
		h := d.Header
		if h.BatchCount == 0 {
			h.BatchCount = 1 // MarshalHops writes the 1 a zero means
			want[31] = 1
			binary.BigEndian.PutUint16(want[32:34], checksum(want))
			h.Checksum = binary.BigEndian.Uint16(want[32:34])
		}
		if h.Flags&FlagTrace == 0 {
			hc := h
			again, err := MarshalHops(&hc, d.User, nil, d.Payload)
			if err != nil || !bytes.Equal(again, want) {
				t.Fatalf("% x decoded to %+v, which marshals to % x (%v)", pkt, d.Header, again, err)
			}
			// The same encoder into a buffer MarshalLen sized, its spare bytes
			// junk: the same packet, written where the buffer is.
			hc = h
			junk := bytes.Repeat([]byte{0xEE}, MarshalLen(&hc, d.User, nil, d.Payload))
			into, err := AppendHops(junk[:0], &hc, d.User, nil, d.Payload)
			if err != nil || !bytes.Equal(into, want) || &into[0] != &junk[0] {
				t.Fatalf("% x appended into a %d-byte buffer as % x (%v)", pkt, len(junk), into, err)
			}
		}

		flags = flags&KnownFlags&^FlagTrace | h.Flags&FlagTrace
		edited := Reseal(append([]byte(nil), pkt...), flags)
		var e Decoded
		if err := DecodeFullInto(edited, &e); err != nil {
			t.Fatalf("flags %#02x resealed into % x: %v", flags, edited, err)
		}
		h.Flags, h.Checksum = flags, e.Header.Checksum
		if e.Header != h || len(edited) != len(want) || !bytes.Equal(e.Payload, d.Payload) {
			t.Fatalf("flag edit %#02x: decoded %+v (%d bytes), want %+v (%d bytes)", flags, e.Header, len(edited), h, len(want))
		}
	})
}
