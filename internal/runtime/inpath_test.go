package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ncl/internal/ncp"
	"ncl/internal/netsim"
	"ncl/internal/obs"
	"ncl/internal/telemetry"
)

// resultConfig is a host configured with Fig. 4's incoming kernel.
func resultConfig(t testing.TB, w int) AppConfig {
	hm := buildHostModule(t, `
_net_ _in_ void result(int *data, _ext_ int *hdata, _ext_ bool *done) {
    for (unsigned i = 0; i < window.len; ++i)
        hdata[window.seq * window.len + i] = data[i];
    *done = true;
}
`, w)
	return AppConfig{
		KernelIDs:  map[string]uint32{"allreduce": 1, "result": 2},
		OutSpecs:   map[string][]ncp.ParamSpec{"allreduce": {{Elems: w, Bytes: 4, Signed: true}}},
		WindowLen:  w,
		HostModule: hm,
	}
}

// resultPacket is one result window as the aggregation switch sends it:
// W int32 elements base+i at sequence seq.
func resultPacket(t testing.TB, w int, seq uint32, flags uint8, hops []ncp.Hop, base int) *netsim.Packet {
	t.Helper()
	vals := make([]uint64, w)
	for i := range vals {
		vals[i] = uint64(int64(base + i))
	}
	payload, err := ncp.EncodePayload([][]uint64{vals}, []ncp.ParamSpec{{Elems: w, Bytes: 4, Signed: true}})
	if err != nil {
		t.Fatal(err)
	}
	hd := ncp.Header{Flags: flags, KernelID: 1, WindowSeq: seq, WindowLen: uint16(w), Sender: 7, Wid: 1, FragCount: 1}
	data, err := ncp.MarshalHops(&hd, nil, hops, payload)
	if err != nil {
		t.Fatal(err)
	}
	return &netsim.Packet{Src: "s1", Dst: "a", Data: data}
}

// TestTraceSinkSeesOnlyDeliveredWindows is the regression test for the
// deliver-hop accounting: the collector ingests a traced window when the
// inbox accepted it and not otherwise. A retransmitted reliable window is
// suppressed as a duplicate (ingested once, acknowledged twice), a window
// arriving at a full inbox is dropped, and a closed host refuses it.
func TestTraceSinkSeesOnlyDeliveredWindows(t *testing.T) {
	const w = 4
	lb := newLoopback(t)
	cfg := resultConfig(t, w)
	cfg.InboxCap = 2
	cfg.Obs = obs.NewRegistry()
	h := withHosts(NewHost("a", 1, 0, cfg, lb, map[string]string{"b": "s1"}), map[uint32]string{7: "b"})
	reg := obs.NewRegistry()
	col := telemetry.NewCollector(reg, 0)
	h.SetTraceSink(col.Ingest)
	ingested := func() uint64 { return reg.Snapshot().Counters["telemetry.windows"] }
	origin := []ncp.Hop{{Loc: 7, Kind: ncp.HopHost, Event: ncp.EventSend, KernelID: 1}}

	reliable := resultPacket(t, w, 0, ncp.FlagTrace|ncp.FlagAckRequest, origin, 10)
	h.Receive(lb, reliable, "s1")
	h.Receive(lb, reliable, "s1") // the retransmit
	if got := ingested(); got != 1 {
		t.Errorf("reliable window received twice: ingested %d times, want 1", got)
	}
	if got := len(countAcks(t, lb)); got != 1 || lb.sentCount() != 2 {
		t.Errorf("acks: %d distinct over %d packets, want the same window acknowledged twice", got, lb.sentCount())
	}

	h.Receive(lb, resultPacket(t, w, 1, ncp.FlagTrace, origin, 20), "s1") // fills the inbox
	h.Receive(lb, resultPacket(t, w, 2, ncp.FlagTrace, origin, 30), "s1") // overflows it
	if got := ingested(); got != 2 {
		t.Errorf("after an overflow drop: ingested %d, want 2", got)
	}
	if got := cfg.Obs.Snapshot().Counters["host.a.inbox_dropped"]; got != 1 {
		t.Errorf("inbox_dropped = %d, want 1", got)
	}
	for i := 0; i < 2; i++ {
		rw, err := h.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(rw.Trace); n != 2 || rw.Trace[1].Event != ncp.EventDeliver {
			t.Errorf("window %d: trace %+v, want send + deliver", i, rw.Trace)
		}
	}

	h.Close()
	h.Receive(lb, resultPacket(t, w, 3, ncp.FlagTrace, origin, 40), "s1")
	if got := ingested(); got != 2 {
		t.Errorf("closed host: ingested %d, want 2", got)
	}
}

// TestReceiveInAllocs is the host half's allocation gate, the counterpart
// of netsim's TestSwitchProcessAllocsUntraced: on the Fig. 4 result
// window the compiled incoming kernel allocates nothing, and taking a
// window in (Receive, then Recv with a timeout) costs one allocation — the
// RecvWindow with its header; Raw aliases the packet, which the host owns.
func TestReceiveInAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; allocation counts are meaningless")
	}
	const w = 8
	h := NewHost("a", 1, 0, resultConfig(t, w), newNullSender(t), nil)
	pkt := resultPacket(t, w, 3, 0, nil, 100)
	ext := [][]uint64{make([]uint64, 64), make([]uint64, 1)}
	for i := 0; i < 8; i++ { // warm the decode scratch pool
		h.Receive(nil, pkt, "s1")
		if _, err := h.In("result", ext, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	recv := testing.AllocsPerRun(500, func() {
		h.Receive(nil, pkt, "s1")
		if _, err := h.Recv(time.Second); err != nil {
			t.Fatal(err)
		}
	})
	in := testing.AllocsPerRun(500, func() {
		h.Receive(nil, pkt, "s1")
		if _, err := h.In("result", ext, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if recv > 1 {
		t.Errorf("Receive + Recv: %.1f allocs/window, budget 1", recv)
	}
	if in != recv {
		t.Errorf("Receive + In: %.1f allocs/window against %.1f for Recv: the kernel must add none", in, recv)
	}
	if ext[0][3*w] != 100 || ext[0][3*w+7] != 107 || ext[1][0] != 1 {
		t.Errorf("kernel effect: hdata[24..31] = %v, done = %d", ext[0][3*w:4*w], ext[1][0])
	}
}

// TestInConcurrentCallers runs one host's incoming kernel from eight
// goroutines at once, each into its own host buffers — meaningful under
// -race: plans are shared and immutable, slot scratch is per call.
func TestInConcurrentCallers(t *testing.T) {
	const w, callers, perCaller = 8, 8, 64
	h := NewHost("a", 1, 0, resultConfig(t, w), newNullSender(t), nil)
	for i := 0; i < callers*perCaller; i++ {
		h.Receive(nil, resultPacket(t, w, uint32(i%8), 0, nil, 1000*(i%8)), "s1")
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ext := [][]uint64{make([]uint64, 8*w), make([]uint64, 1)}
			for n := 0; n < perCaller; n++ {
				rw, err := h.In("result", ext, time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				seq := int(rw.Header.WindowSeq)
				for i := 0; i < w; i++ {
					if got, want := ext[0][seq*w+i], uint64(1000*seq+i); got != want {
						t.Errorf("seq %d: hdata[%d] = %d, want %d", seq, seq*w+i, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if h.Pending() != 0 {
		t.Errorf("%d windows left queued", h.Pending())
	}
}

// TestRecvSemantics pins what the timer-free fast path and the recycled
// timers must not change.
func TestRecvSemantics(t *testing.T) {
	const w = 4
	h := NewHost("a", 1, 0, resultConfig(t, w), newNullSender(t), nil)

	// An empty inbox times out, after the timeout and not before.
	start := time.Now()
	if _, err := h.Recv(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("empty inbox: err = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("timed out after %v, before the 30ms asked for", d)
	}

	// That call's timer fired and went back to the pool. The next calls
	// reuse it: a stale tick left in its channel would time them out at
	// once instead of letting them wait for the window.
	for round := 0; round < 3; round++ {
		pkt := resultPacket(t, w, uint32(round), 0, nil, 0)
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			time.Sleep(20 * time.Millisecond) // so that Recv is usually already waiting
			h.Receive(nil, pkt, "s1")
		}()
		rw, err := h.Recv(5 * time.Second)
		<-sent
		if err != nil {
			t.Fatalf("round %d: Recv with a recycled timer: %v", round, err)
		}
		if rw.Header.WindowSeq != uint32(round) {
			t.Errorf("round %d: got window %d", round, rw.Header.WindowSeq)
		}
		if _, err := h.Recv(time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("round %d: empty again: err = %v, want ErrTimeout", round, err)
		}
	}

	// A queued window is returned whatever the timeout, zero included.
	h.Receive(nil, resultPacket(t, w, 9, 0, nil, 0), "s1")
	if rw, err := h.Recv(time.Nanosecond); err != nil || rw.Header.WindowSeq != 9 {
		t.Errorf("queued window with a 1ns timeout: %v, %v", rw, err)
	}

	// Close: queued windows still drain, then ErrClosed, for every entry
	// point.
	h.Receive(nil, resultPacket(t, w, 10, 0, nil, 0), "s1")
	h.Receive(nil, resultPacket(t, w, 11, 0, nil, 0), "s1")
	h.Close()
	ext := [][]uint64{make([]uint64, 16*w), make([]uint64, 1)}
	if rw, err := h.Recv(time.Second); err != nil || rw.Header.WindowSeq != 10 {
		t.Errorf("first queued window after Close: %v, %v", rw, err)
	}
	if rw, err := h.In("result", ext, 0); err != nil || rw.Header.WindowSeq != 11 {
		t.Errorf("second queued window after Close: %v, %v", rw, err)
	}
	if _, err := h.Recv(time.Second); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv on a drained closed host: err = %v, want ErrClosed", err)
	}
	if _, err := h.Recv(0); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv(0) on a drained closed host: err = %v, want ErrClosed", err)
	}
	if _, _, err := h.TryIn("result", ext); !errors.Is(err, ErrClosed) {
		t.Errorf("TryIn on a drained closed host: err = %v, want ErrClosed", err)
	}
}
