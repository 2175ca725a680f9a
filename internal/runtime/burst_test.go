package runtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"ncl/internal/and"
	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
)

// wireRecorder is a transport that keeps what a host sends, in order.
type wireRecorder struct {
	net  *and.Network
	mu   sync.Mutex
	sent []string // next hop, destination and bytes of each packet
}

func (r *wireRecorder) Network() *and.Network { return r.net }
func (r *wireRecorder) SendBatch(_ string, tos []string, pkts []*netsim.Packet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range pkts {
		r.sent = append(r.sent, fmt.Sprintf("%s→%s %x", tos[i], p.Dst, p.Data))
	}
	return nil
}

// mixedStream is a seeded stream of what a host can be handed, from three
// senders: plain, reliable and duplicated windows, multi-window packets,
// fragments out of order, acks, traced windows and undecodable bytes.
func mixedStream(t *testing.T, seed int64, n, w int) []netsim.Packet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	payload := func(windows int) []byte {
		vals := make([]uint64, w*windows)
		for i := range vals {
			vals[i] = uint64(rng.Int31())
		}
		p, err := ncp.EncodePayload([][]uint64{vals}, []ncp.ParamSpec{{Elems: w * windows, Bytes: 4, Signed: true}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out []netsim.Packet
	add := func(hd ncp.Header, user []uint64, hops []ncp.Hop, pl []byte) {
		data, err := ncp.MarshalHops(&hd, user, hops, pl)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, netsim.Packet{Src: "s1", Dst: "b", Data: data, VTimeUs: float64(len(out) + 1)})
	}
	var reliable []netsim.Packet // sent once already: the pool duplicates come from
	for seq := uint32(0); len(out) < n; seq++ {
		hd := ncp.Header{KernelID: 1, WindowSeq: seq, WindowLen: uint16(w), Sender: uint32(1 + rng.Intn(3)), Wid: 9, FragCount: 1}
		user := []uint64{uint64(rng.Intn(100))}
		switch k := rng.Intn(9); k {
		case 0, 1: // plain
			add(hd, user, nil, payload(1))
		case 2: // reliable
			hd.Flags = ncp.FlagAckRequest
			add(hd, user, nil, payload(1))
			reliable = append(reliable, out[len(out)-1])
		case 3: // a duplicate of a reliable window
			if len(reliable) > 0 {
				out = append(out, reliable[rng.Intn(len(reliable))])
			}
		case 4: // three windows in one packet, reliable half the time
			hd.BatchCount = 3
			if rng.Intn(2) == 0 {
				hd.Flags = ncp.FlagAckRequest
			}
			add(hd, user, nil, payload(3))
		case 5: // a window in three fragments, arriving out of order
			hd.FragCount = 3
			if rng.Intn(2) == 0 {
				hd.Flags = ncp.FlagAckRequest
			}
			whole := payload(1)
			third := len(whole) / 3
			for _, i := range rng.Perm(3) {
				hd.FragIdx = uint16(i)
				end := min((i+1)*third, len(whole))
				if i == 2 {
					end = len(whole)
				}
				add(hd, user, nil, whole[i*third:end])
			}
		case 6: // an ack for nothing outstanding
			hd.Flags = ncp.FlagAck
			add(hd, nil, nil, nil)
		case 7: // traced
			hd.Flags = ncp.FlagTrace
			add(hd, user, []ncp.Hop{{Loc: 1, Kind: ncp.HopHost, Event: ncp.EventSend, KernelID: 1}}, payload(1))
		case 8: // undecodable
			junk := make([]byte, 1+rng.Intn(40))
			rng.Read(junk)
			out = append(out, netsim.Packet{Src: "s1", Dst: "b", Data: junk})
		}
	}
	return out
}

// TestHostBurstMatchesPerPacket: a host handed a seeded mixed stream in
// drained bursts (ReceiveBurst) and its twin handed the same stream one
// Receive per packet end with the same inbox sequence, the same acks on
// the wire in the same order, the same trace-sink spans and the same
// counters — inbox overflow included.
func TestHostBurstMatchesPerPacket(t *testing.T) {
	const w = 4
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			stream := mixedStream(t, seed, 600, w)
			type span struct {
				hd   ncp.Header
				hops []ncp.Hop
			}
			type twin struct {
				h     *Host
				reg   *obs.Registry
				wire  *wireRecorder
				spans []span
			}
			mk := func() *twin {
				tw := &twin{reg: obs.NewRegistry(), wire: &wireRecorder{net: newNullSender(t).net}}
				cfg := testConfig(t, w)
				cfg.Obs, cfg.InboxCap = tw.reg, 300 // the stream overflows it
				cfg.UserFields = []string{"tag"}
				tw.h = withHosts(NewHost("b", 5, 1, cfg, tw.wire, map[string]string{"a": "s1", "a2": "s1", "a3": "s1"}), map[uint32]string{1: "a", 2: "a2", 3: "a3"})
				tw.h.SetTraceSink(func(hd *ncp.Header, hops []ncp.Hop) {
					tw.spans = append(tw.spans, span{*hd, append([]ncp.Hop(nil), hops...)})
				})
				return tw
			}
			// Each host gets its own packet structs; the bytes are shared
			// and read-only.
			copyOf := func() []netsim.Packet { return append([]netsim.Packet(nil), stream...) }
			burst, single := mk(), mk()
			rng := rand.New(rand.NewSource(seed))
			pkts := copyOf()
			for len(pkts) > 0 {
				n := min(len(pkts), 1+rng.Intn(netsim.DefaultDrainBatch))
				ds := make([]netsim.Delivery, n)
				for i := range ds {
					ds[i] = netsim.Delivery{Pkt: &pkts[i], From: "s1"}
				}
				burst.h.ReceiveBurst(burst.wire, ds)
				pkts = pkts[n:]
			}
			pkts = copyOf()
			for i := range pkts {
				single.h.Receive(single.wire, &pkts[i], "s1")
			}

			if burst.h.Pending() != single.h.Pending() {
				t.Fatalf("inbox holds %d windows after bursts, %d after single packets", burst.h.Pending(), single.h.Pending())
			}
			if single.h.Pending() != 300 {
				t.Errorf("inbox holds %d windows, want the stream to fill all 300", single.h.Pending())
			}
			for i := 0; single.h.Pending() > 0; i++ {
				a, _ := burst.h.Recv(time.Second)
				b, _ := single.h.Recv(time.Second)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("window %d: burst %+v %+v, single %+v %+v", i, a, a.Header, b, b.Header)
				}
			}
			if !reflect.DeepEqual(burst.wire.sent, single.wire.sent) {
				t.Errorf("acks on the wire differ: %d after bursts, %d after single packets", len(burst.wire.sent), len(single.wire.sent))
			}
			if len(single.wire.sent) == 0 {
				t.Error("the stream produced no acks")
			}
			if !reflect.DeepEqual(burst.spans, single.spans) || len(single.spans) == 0 {
				t.Errorf("trace sink saw %d spans after bursts, %d after single packets", len(burst.spans), len(single.spans))
			}
			bc, sc := burst.reg.Snapshot().Counters, single.reg.Snapshot().Counters
			if !reflect.DeepEqual(bc, sc) {
				t.Errorf("counters differ:\nburst  %v\nsingle %v", bc, sc)
			}
			for _, c := range []string{"windows_received", "inbox_dropped", "duplicates_dropped", "decode_errors", "fragments_reassembled", "stale_acks"} {
				if sc["host.b."+c] == 0 {
					t.Errorf("host.b.%s is 0: the stream does not exercise it", c)
				}
			}
		})
	}
}

// resultBurst is 64 Fig. 4 result windows as a switch's broadcast hands
// them to a host in one drained burst.
func resultBurst(t testing.TB, w int) []netsim.Delivery {
	burst := make([]netsim.Delivery, netsim.DefaultDrainBatch)
	for i := range burst {
		burst[i] = netsim.Delivery{Pkt: resultPacket(t, w, uint32(i), 0, nil, i), From: "s1"}
	}
	return burst
}

// TestReceiveBurstAllocs is the burst half of TestReceiveInAllocs: a
// 64-window burst and the 64 Recv calls that take its windows cost one
// slab (budget 2 allocations), where 64 single-packet bursts cost 64.
func TestReceiveBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are meaningless")
	}
	const w = 8
	h := NewHost("a", 1, 0, resultConfig(t, w), newNullSender(t), nil)
	burst := resultBurst(t, w)
	take := func() {
		for range burst {
			if _, err := h.Recv(time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	h.ReceiveBurst(nil, burst) // warm the burst pool
	take()
	allocs := testing.AllocsPerRun(200, func() {
		h.ReceiveBurst(nil, burst)
		take()
	})
	if allocs > 2 {
		t.Errorf("a 64-window burst and its Recv calls: %.1f allocations, budget 2", allocs)
	}
}

// BenchmarkHostReceive reports a host's receive cost per window for a
// window handed over alone (packet) and in a 64-packet drained burst
// (burst64): recv-ns/window times the receive alone, ns/window adds the
// Recv call that takes each window, which costs both the same — together
// the work the benchmark's runtime.host_receive_ns_per_window probe times.
func BenchmarkHostReceive(b *testing.B) {
	const w = 8
	burst := resultBurst(b, w)
	for _, bc := range []struct {
		name string
		size int
	}{{"packet", 1}, {"burst64", len(burst)}} {
		b.Run(bc.name, func(b *testing.B) {
			h := NewHost("a", 1, 0, resultConfig(b, w), newNullSender(b), nil)
			var recv time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for at := 0; at < len(burst); at += bc.size {
					h.ReceiveBurst(nil, burst[at:at+bc.size])
				}
				recv += time.Since(start)
				for range burst {
					if _, err := h.Recv(time.Second); err != nil {
						b.Fatal(err)
					}
				}
			}
			windows := float64(b.N * len(burst))
			b.ReportMetric(float64(recv.Nanoseconds())/windows, "recv-ns/window")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/windows, "ns/window")
		})
	}
}
