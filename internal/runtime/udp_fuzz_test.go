package runtime

import (
	"bytes"
	"strings"
	"testing"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
)

// frameCapture is a transport that keeps what a UDPNet would put on the
// wire: every packet framed exactly as UDPNet.SendBatch frames it.
type frameCapture struct {
	net    *and.Network
	pkts   []*netsim.Packet
	frames [][]byte
}

func (c *frameCapture) Network() *and.Network { return c.net }
func (c *frameCapture) SendBatch(from string, _ []string, pkts []*netsim.Packet) error {
	for _, pkt := range pkts {
		frame, err := appendFrame(nil, from, pkt)
		if err != nil {
			return err
		}
		c.pkts = append(c.pkts, pkt)
		c.frames = append(c.frames, frame)
	}
	return nil
}

// allreduceFrames returns the packets and datagrams one worker of
// examples/allreduce (W=8, one int array per window) sends for a
// 32-element invocation: to its switch as the example deploys it, and to
// a peer through a placed switch, which is the case that sets Via.
func allreduceFrames(t testing.TB) *frameCapture {
	t.Helper()
	n, err := and.Parse("switch s1 id=1\nhost worker count=2 role=0\nlink worker s1")
	if err != nil {
		t.Fatal(err)
	}
	capture := &frameCapture{net: n}
	h := NewHost("worker0", 1, 0, AppConfig{
		KernelIDs:   map[string]uint32{"allreduce": 1, "result": 2},
		OutSpecs:    map[string][]ncp.ParamSpec{"allreduce": {{Elems: 8, Bytes: 4, Signed: true}}},
		WindowLen:   8,
		SendWorkers: 1,
	}, capture, nil)
	h.SetRoutes(map[string][]string{"s1": {"s1"}}, map[string]string{"worker1": "s1"})
	data := make([]uint64, 32)
	for i := range data {
		data[i] = uint64(i + 1)
	}
	for _, dest := range []string{"s1", "worker1"} {
		if err := h.Out(Invocation{Kernel: "allreduce", Dest: dest}, [][]uint64{data}); err != nil {
			t.Fatal(err)
		}
	}
	return capture
}

// FuzzUDPFrame holds the UDP frame codec to its contract in both
// directions. Encoding: appendFrame accepts exactly the label quadruples
// that fit a length byte, and what it accepts decodes to the same from,
// src, dst, via and payload. Decoding: decodeFrameZero never panics on
// arbitrary bytes, and whatever it accepts re-encodes to the very bytes it
// was given — so it read every byte once and none past the end.
func FuzzUDPFrame(f *testing.F) {
	capture := allreduceFrames(f)
	for i, pkt := range capture.pkts {
		f.Add("worker0", pkt.Src, pkt.Dst, pkt.Via, pkt.Data)
		f.Add("", "", "", "", capture.frames[i])
	}
	// A forwarded packet: the previous hop is not the originator.
	f.Add("s1", "worker0", "worker1", "e3", []byte{1, 2, 3})
	long := strings.Repeat("x", 255)
	f.Add(long, long, long, long, []byte{1})
	f.Add(long+"x", "a", "s1", "", []byte{1})
	f.Add("a", long+"x", "s1", "", []byte{1})
	f.Add("a", "a", long+"x", "", []byte(nil))
	f.Add("a", "a", "b", long+"x", []byte{})
	f.Add("", "", "", "", []byte{3, 'a', 'b'})

	f.Fuzz(func(t *testing.T, from, src, dst, via string, payload []byte) {
		in := &netsim.Packet{Src: src, Dst: dst, Via: via, Data: payload}
		frame, err := appendFrame(nil, from, in)
		if len(from) > 255 || len(src) > 255 || len(dst) > 255 || len(via) > 255 {
			if err == nil {
				t.Fatalf("labels of %d/%d/%d/%d bytes accepted", len(from), len(src), len(dst), len(via))
			}
		} else {
			if err != nil {
				t.Fatalf("appendFrame(%q, %+v): %v", from, in, err)
			}
			f2, out, err := decodeFrameZero(frame)
			if err != nil {
				t.Fatalf("own frame rejected: %v", err)
			}
			if f2 != from || out.Src != src || out.Dst != dst || out.Via != via || !bytes.Equal(out.Data, payload) {
				t.Fatalf("round trip: (%q, %+v) -> (%q, %+v)", from, in, f2, out)
			}
		}

		f3, out, err := decodeFrameZero(payload)
		if err != nil {
			return
		}
		again, err := appendFrame(nil, f3, out)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("decoded %x to (%q, %+v), which encodes to %x (%v)", payload, f3, out, again, err)
		}
	})
}
