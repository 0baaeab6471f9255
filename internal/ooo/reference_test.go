package ooo

import (
	"strings"
	"testing"

	"optiwise/internal/asm"
	"optiwise/internal/isa"
	"optiwise/internal/program"
)

// The simulator keeps two incremental summaries where it used to scan:
// the early-dequeue frontier edSeq, which replaced a walk over the whole
// ROB at every branch resolution, and execMin, which replaced a scan of
// the exec list on every cycle. The references below are those scans,
// kept verbatim in shape, with the kind predicates they used.

func refIsBranchKind(k isa.Kind) bool {
	switch k {
	case isa.KindBranch, isa.KindIndirect, isa.KindIndCall, isa.KindReturn:
		return true
	}
	return false
}

func refCanAbort(k isa.Kind) bool {
	switch k {
	case isa.KindLoad, isa.KindStore, isa.KindBranch, isa.KindIndirect,
		isa.KindIndCall, isa.KindReturn, isa.KindSyscall:
		return true
	}
	return false
}

// refEarlyDequeueChange runs the whole-ROB early-dequeue walk without
// applying it: from the head, every uop that cannot abort and has no
// unresolved branch ahead of it leaves the sampling-visible ROB. It
// returns the first in-flight uop whose inSampleROB flag the walk would
// change, or nil.
func refEarlyDequeueChange(s *Sim) *uop {
	unresolved := 0
	for q := s.headSeq; q <= s.seq; q++ {
		u := s.at(q)
		if unresolved == 0 && !refCanAbort(u.kind) && u.inSampleROB {
			return u
		}
		if refIsBranchKind(u.kind) && u.state != stDone {
			unresolved++
		}
	}
	return nil
}

// refExecMin scans the exec list for its earliest doneC.
func refExecMin(s *Sim) uint64 {
	m := noEvent
	for _, q := range s.exec {
		m = min(m, s.at(q).doneC)
	}
	return m
}

// TestIncrementalScansMatchReference steps the golden corpus one cycle at
// a time on the production and narrow machines, with skid sampling,
// interrupt cost, windows and the timeline all on, and after every cycle
// checks that execMin is the exec list's earliest doneC and, on the
// early-dequeue machines, that the whole-ROB walk would change no flag.
// Each case then runs through Run, whose quiet-cycle skipping must land
// on the same cycle.
func TestIncrementalScansMatchReference(t *testing.T) {
	var all goldenSetting
	for _, gs := range goldenSettings() {
		if gs.name == "all" {
			all = gs
		}
	}
	machines := append([]Config{XeonW2195(), NeoverseN1()}, goldenNarrowMachines()...)
	const limit = 200_000_000
	for _, gp := range goldenPrograms() {
		prog, err := asm.Assemble(gp.name, gp.src)
		if err != nil {
			t.Fatalf("%s: %v", gp.name, err)
		}
		for _, cfg := range machines {
			opts := all.opts
			opts.RandSeed = 7
			s := New(cfg, program.Load(prog, program.LoadOptions{}), opts)
			for !(s.fetchDone && s.robLen() == 0) && s.cycle < limit {
				s.step()
				if s.err != nil {
					t.Fatalf("%s/%s: %v", gp.name, cfg.Name, s.err)
				}
				if u := refEarlyDequeueChange(s); cfg.EarlyDequeue && u != nil {
					t.Fatalf("%s/%s cycle %d: the whole-ROB walk would dequeue seq %d (%v), frontier at %d",
						gp.name, cfg.Name, s.cycle, u.seq, u.op, s.edSeq)
				}
				if want := refExecMin(s); s.execMin != want {
					t.Fatalf("%s/%s cycle %d: execMin %d, exec list's earliest doneC %d",
						gp.name, cfg.Name, s.cycle, s.execMin, want)
				}
			}
			st, err := New(cfg, program.Load(prog, program.LoadOptions{}), opts).Run(limit)
			if err != nil {
				t.Fatalf("%s/%s: %v", gp.name, cfg.Name, err)
			}
			if st.Cycles != s.cycle || st.Instructions != s.stats.Instructions {
				t.Errorf("%s/%s: stepped run ends at cycle %d after %d instructions, Run at %d after %d",
					gp.name, cfg.Name, s.cycle, s.stats.Instructions, st.Cycles, st.Instructions)
			}
		}
	}
}

// TestRetiredWriterIsNotAProducer writes a register once, runs a ring's
// worth of dependent divides on another register, then reads the first
// one. By then the writer has retired and its ROB ring slot holds the
// last divide, still waiting on the chain: the reader must issue at once
// instead of waiting for whatever occupies the writer's old slot.
func TestRetiredWriterIsNotAProducer(t *testing.T) {
	for _, cfg := range []Config{XeonW2195(), NeoverseN1(), goldenNarrowMachines()[0]} {
		ring := len(New(cfg, build(t, exitSrc), Options{}).rob)
		src := `
.func main
main:
    li t0, 7
    li t5, 1
` + strings.Repeat("    div t0, t0, t0\n", ring) + `
    add t6, t5, t5
    li a0, 0
    li a7, 93
    syscall
.endfunc
`
		s, _ := runSim(t, src, cfg, Options{TraceLimit: uint64(ring) + 16})
		tr := s.Trace()
		var writer, reader TimelineEntry
		for i, e := range tr {
			switch {
			case e.Op == isa.DIV && writer.Seq == 0:
				writer = tr[i-1]
			case e.Op == isa.ADD:
				reader = e
			}
		}
		if reader.Seq < 2 || int(reader.Seq) > len(tr) {
			t.Fatalf("%s: no reader in the trace", cfg.Name)
		}
		occupant := tr[reader.Seq-2] // trace entries are seqs 1, 2, …
		if occupant.Op != isa.DIV || reader.Seq-1-writer.Seq != uint64(ring) {
			t.Fatalf("%s: reader %+v, writer %+v, occupant %+v: the writer's slot is not the last divide's",
				cfg.Name, reader, writer, occupant)
		}
		if reader.Dispatch <= writer.Commit {
			t.Fatalf("%s: the reader dispatched at %d, before the writer retired at %d",
				cfg.Name, reader.Dispatch, writer.Commit)
		}
		if reader.Start >= occupant.Done || reader.Start > reader.Dispatch+1 {
			t.Errorf("%s: the reader dispatched at %d issued at %d; the divide in the writer's old slot finished at %d",
				cfg.Name, reader.Dispatch, reader.Start, occupant.Done)
		}
	}
}
