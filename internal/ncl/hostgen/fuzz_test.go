package hostgen_test

import (
	"testing"

	"ncl/internal/bench"
	"ncl/internal/ncl/hostgen"
	"ncl/internal/ncl/ir"
)

// FuzzHostPlan feeds the three incoming kernels the benchmark and the
// telemetry example run — allreduce's result, the KVS reply, the
// heavy-hitter alert — whatever a network and a careless application can
// hand Host.In: arbitrary payload bytes of any length, arbitrary header
// metadata and _win_ values, and any number of host buffers of any
// length. The plan never panics, and it agrees with the interpreter on
// whether the window is accepted and on every word of host memory.
func FuzzHostPlan(f *testing.F) {
	type target struct {
		fn     *ir.Func
		plan   *hostgen.Plan
		fields []string
	}
	var targets []target
	for _, k := range []struct {
		src, kernel string
		W           int
	}{
		{bench.AllReduceNCL(64), "result", 8},
		{bench.KVSNCL(16, 8), "reply", 8},
		{alertNCL, "alert", 1},
	} {
		m, fields := compile(f, k.src, k.W)
		fn := hostFunc(f, m, k.kernel)
		plan := hostgen.Lower(fn, fields)
		if err := plan.Err(); err != nil {
			f.Fatal(err)
		}
		targets = append(targets, target{fn, plan, fields})
	}

	window := make([]byte, 32)
	for i := range window {
		window[i] = byte(0xF0 + i)
	}
	f.Add(uint8(0), window, uint32(3), uint32(0), uint32(1), uint32(9), uint16(8), uint64(0), []byte{64, 1})
	f.Add(uint8(0), window, uint32(8), uint32(0), uint32(1), uint32(9), uint16(8), uint64(0), []byte{64, 1}) // hdata[64..]
	f.Add(uint8(0), window[:31], uint32(0), uint32(0), uint32(1), uint32(9), uint16(8), uint64(0), []byte{64, 1})
	f.Add(uint8(0), window, uint32(0), uint32(0), uint32(1), uint32(9), uint16(8), uint64(0), []byte{64})
	f.Add(uint8(0), window, uint32(0xFFFFFFFF), uint32(0), uint32(1), uint32(9), uint16(8), uint64(0), []byte{64, 0})
	f.Add(uint8(1), window[:17], uint32(0), uint32(1), uint32(2), uint32(1), uint16(8), uint64(7), []byte{1, 8})
	f.Add(uint8(1), window[:17], uint32(0), uint32(1), uint32(2), uint32(1), uint16(8), uint64(7), []byte{0, 7})
	f.Add(uint8(2), window[:12], uint32(0), uint32(2), uint32(3), uint32(1), uint16(1), uint64(0), []byte{1, 1})
	f.Add(uint8(2), []byte{}, uint32(0), uint32(0), uint32(0), uint32(0), uint16(0), uint64(0), []byte{})

	f.Fuzz(func(t *testing.T, which uint8, payload []byte, seq, from, sender, wid uint32, wlen uint16, user uint64, extLens []byte) {
		tg := targets[int(which)%len(targets)]
		w := hostgen.Window{Raw: payload, Seq: uint64(seq), Len: uint64(wlen), From: uint64(from),
			Sender: uint64(sender), Wid: uint64(wid), User: []uint64{user}}
		if len(extLens) > 4 {
			extLens = extLens[:4]
		}
		for i, n := range extLens {
			buf := make([]uint64, int(n)%80)
			for j := range buf {
				buf[j] = user*uint64(i+1) + uint64(j) // not canonical for narrow element types
			}
			w.Ext = append(w.Ext, buf)
		}
		if err := agree(tg.fn, tg.plan, tg.fields, w); err != nil {
			t.Fatal(err)
		}
	})
}
