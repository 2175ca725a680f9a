package ncp

import (
	"bytes"
	"strings"
	"testing"
)

func TestHopPackUnpack(t *testing.T) {
	cases := []Hop{
		{Loc: 1, Kind: HopHost, Event: EventSend, TimeNs: 0},
		{Loc: 7, Kind: HopSwitch, Event: EventExec, TimeNs: 1234567,
			LatencyNs: 950, QueueDepth: 3, KernelID: 42},
		{Loc: 0xFFFF, Kind: HopSwitch, Event: EventDeliver, TimeNs: hopTimeMask,
			LatencyNs: intLatMask, QueueDepth: 0xFFFF, KernelID: intKernelMask},
	}
	for _, h := range cases {
		if got := UnpackHop(h.Pack(), h.PackINT()); got != h {
			t.Errorf("round trip: %+v -> %+v", h, got)
		}
	}
	// Times beyond 44 bits truncate rather than corrupt other fields.
	big := Hop{Loc: 3, Kind: HopHost, Event: EventSend, TimeNs: ^uint64(0)}
	got := UnpackHop(big.Pack(), big.PackINT())
	if got.Loc != 3 || got.Kind != HopHost || got.Event != EventSend {
		t.Errorf("oversized time corrupted fields: %+v", got)
	}
}

func TestHopINTSaturation(t *testing.T) {
	// Latency and kernel id beyond 24 bits saturate to the field max
	// instead of wrapping or corrupting neighboring fields.
	h := Hop{Loc: 5, Kind: HopSwitch, Event: EventExec,
		LatencyNs: ^uint32(0), QueueDepth: 7, KernelID: ^uint32(0)}
	got := UnpackHop(h.Pack(), h.PackINT())
	if got.LatencyNs != intLatMask {
		t.Errorf("latency = %d, want saturated %d", got.LatencyNs, intLatMask)
	}
	if got.KernelID != intKernelMask {
		t.Errorf("kernel id = %d, want saturated %d", got.KernelID, intKernelMask)
	}
	if got.QueueDepth != 7 || got.Loc != 5 || got.Event != EventExec {
		t.Errorf("saturation corrupted other fields: %+v", got)
	}
}

func TestMarshalHopsRoundTrip(t *testing.T) {
	h := &Header{KernelID: 9, WindowSeq: 2, Sender: 1, FragCount: 1}
	user := []uint64{0xABCD}
	hops := []Hop{
		{Loc: 1, Kind: HopHost, Event: EventSend, TimeNs: 0, KernelID: 9},
		{Loc: 1, Kind: HopSwitch, Event: EventExec, TimeNs: 1500,
			LatencyNs: 1000, QueueDepth: 2, KernelID: 9},
	}
	payload := []byte{1, 2, 3, 4}
	pkt, err := MarshalHops(h, user, hops, payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.Flags&FlagTrace == 0 {
		t.Fatal("MarshalHops must set FlagTrace")
	}
	h2, user2, hops2, payload2, err := DecodeFull(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Flags&FlagTrace == 0 || len(hops2) != 2 || hops2[0] != hops[0] || hops2[1] != hops[1] {
		t.Errorf("hops: %+v", hops2)
	}
	if len(user2) != 1 || user2[0] != 0xABCD {
		t.Errorf("user vals: %v", user2)
	}
	if !bytes.Equal(payload2, payload) {
		t.Errorf("payload: %v", payload2)
	}
	// The compact Decode still works on traced packets, discarding hops.
	h3, _, payload3, err := Decode(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h3.WindowSeq != 2 || !bytes.Equal(payload3, payload) {
		t.Errorf("Decode on traced packet: %+v %v", h3, payload3)
	}
}

func TestMarshalHopsCapsLength(t *testing.T) {
	hops := make([]Hop, MaxHops+5)
	for i := range hops {
		hops[i] = Hop{Loc: uint16(i), Event: EventForward}
	}
	pkt, err := MarshalHops(&Header{KernelID: 1, FragCount: 1}, nil, hops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := MarshalLen(&Header{}, nil, hops, nil); n != len(pkt) {
		t.Errorf("MarshalLen = %d for a %d-byte packet", n, len(pkt))
	}
	_, _, got, _, err := DecodeFull(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != MaxHops {
		t.Fatalf("kept %d hops, want %d", len(got), MaxHops)
	}
	// The most recent hops survive.
	if got[len(got)-1].Loc != uint16(MaxHops+4) {
		t.Errorf("last hop = %+v, want loc %d", got[len(got)-1], MaxHops+4)
	}
}

func TestUnknownFlagBitsRejected(t *testing.T) {
	pkt, err := Marshal(&Header{KernelID: 1, FragCount: 1}, nil, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	pkt[3] |= 0x80 // a flag bit this version does not define
	// Fix the checksum so only the flag guard can reject it.
	c := checksum(pkt)
	pkt[32] = byte(c >> 8)
	pkt[33] = byte(c)
	if _, _, _, err := Decode(pkt); err == nil || !strings.Contains(err.Error(), "unknown flag") {
		t.Fatalf("unknown flag bits must be rejected, got %v", err)
	}
}

func TestTruncatedTraceRejected(t *testing.T) {
	hops := []Hop{{Loc: 1, Event: EventSend}}
	pkt, err := MarshalHops(&Header{KernelID: 1, FragCount: 1}, nil, hops, []byte{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, err := DecodeFull(pkt[:len(pkt)-4]); err == nil {
		t.Error("truncated traced packet must be rejected")
	}
	if _, _, _, _, err := DecodeFull(pkt[:HeaderSize]); err == nil {
		t.Error("packet cut at the trace count must be rejected")
	}
	// A packet cut inside a record's INT word (first word intact) is a
	// truncated record too.
	hdrEnd := len(pkt) - len([]byte{5, 6}) // payload is last
	if _, _, _, _, err := DecodeFull(pkt[:hdrEnd-8]); err == nil {
		t.Error("packet cut inside the INT word must be rejected")
	}
}

func TestFlagNames(t *testing.T) {
	if got := (&Header{}).FlagNames(); got != "none" {
		t.Errorf("no flags = %q", got)
	}
	h := &Header{Flags: FlagAck | FlagTrace}
	if got := h.FlagNames(); got != "ack|trace" {
		t.Errorf("FlagNames = %q, want \"ack|trace\"", got)
	}
	h = &Header{Flags: FlagReflected | 0x80}
	if got := h.FlagNames(); !strings.Contains(got, "reflected") || !strings.Contains(got, "unknown") {
		t.Errorf("FlagNames with unknown bit = %q", got)
	}
}
