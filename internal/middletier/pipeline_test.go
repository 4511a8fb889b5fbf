package middletier

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/critpath"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
	"github.com/disagg/smartds/internal/trace"
)

// Fixed stage costs of the fake datapath, in virtual seconds.
const (
	fakeNet        = 0.5e-6
	fakeParse      = 1e-6
	fakeCompress   = 2e-6
	fakeStorage    = 3e-6
	fakeDecompress = 4e-6
)

// fakePath is a zero-cost datapath: every stage is a fixed sleep,
// storage answers each replicate/fetch after fakeStorage, and client
// replies are recorded. It drives the shared pipeline exactly as the
// four real designs do.
type fakePath struct {
	s       *Server
	fetch   blockstore.Status // status storage answers fetches with
	stored  []byte            // frame fetch replies carry (nil: modeled)
	replies []blockstore.Header
	at      []float64 // virtual time of each client reply
}

func (f *fakePath) parse(p *sim.Proc, r *request) { p.Sleep(fakeParse) }

func (f *fakePath) compress(p *sim.Proc, r *request) (frame, uint8, error) {
	p.Sleep(fakeCompress)
	data, err := lz4.EncodeFrame(r.payload, lz4.LevelDefault)
	return frame{data: data, size: float64(len(data))}, blockstore.FlagCompressed, err
}

func (f *fakePath) send(p *sim.Proc, path int, qp *rdma.QP, hdr blockstore.Header, fr frame) *sim.Event {
	s := f.s
	switch hdr.Op {
	case blockstore.OpReplicate:
		s.env.After(fakeStorage, func() {
			s.completePending(hdr.ReqID, -1, blockstore.StatusOK, nil, 0, blockstore.Header{})
		})
	case blockstore.OpFetch:
		s.env.After(fakeStorage, func() {
			rh := blockstore.Header{Status: f.fetch, Flags: blockstore.FlagCompressed, Version: 1}
			s.completePending(hdr.ReqID, -1, f.fetch, f.stored, float64(len(f.stored)), rh)
		})
	default:
		f.replies = append(f.replies, hdr)
		f.at = append(f.at, p.Now())
	}
	return s.env.NewEvent()
}

func (f *fakePath) poll(*sim.Proc, int) {}

func (f *fakePath) decompress(p *sim.Proc, r *request, pr *pendingReq) (frame, blockstore.Status) {
	p.Sleep(fakeDecompress)
	block, err := lz4.DecodeFrame(pr.payload)
	if err != nil {
		return frame{}, blockstore.StatusCorrupt
	}
	return frame{data: block, size: float64(len(block))}, blockstore.StatusOK
}

func (f *fakePath) release(*sim.Proc, *request, frame, *sim.Event) {}
func (f *fakePath) clientQP(int) *rdma.QP                          { return nil }
func (f *fakePath) storageQP(int, int) *rdma.QP                    { return nil }

// newFakePipeline builds a server of three storage servers whose
// datapath is a fakePath, tracing every request.
func newFakePipeline(t *testing.T, proto Protocol) (*Server, *fakePath, *trace.Tracer) {
	t.Helper()
	s := newTestServer(t, CPUOnly)
	tr := trace.New(1 << 12)
	s.cfg.Trace, s.cfg.Protocol = tr, proto
	s.rep, s.trackAcks = newReplicator(proto), proto != ProtoPrimary
	s.numStorage, s.serverDown = 3, make([]bool, 3)
	s.storagePaths = [][]*rdma.QP{make([]*rdma.QP, 3)}
	f := &fakePath{s: s}
	s.dp = f
	return s, f, tr
}

// drive runs one request through serve the way a client would: a root
// span and an outbound net span fakeNet before the middle tier sees it,
// and the net reply span closed fakeNet after the reply left. It
// returns the reply status.
func drive(t *testing.T, s *Server, f *fakePath, tr *trace.Tracer, op blockstore.Op, id uint64, payload []byte) blockstore.Status {
	t.Helper()
	tid := TraceID(0, id)
	start := float64(s.env.Now())
	name := "write"
	if op == blockstore.OpRead {
		name = "read"
	}
	tr.BeginReq(start, "client0", name, id, tid, trace.KindRoot)
	tr.BeginReq(start, "net", "request", tid, tid, trace.KindService)
	r := s.newRequest()
	r.hdr = blockstore.Header{Op: op, ReqID: id, SegmentID: 7, ChunkID: 1, BlockOff: 2, OrigLen: uint32(len(payload))}
	r.payload, r.size = payload, float64(len(payload))
	n := len(f.replies)
	s.env.Go("test.req", func(p *sim.Proc) {
		p.Sleep(fakeNet)
		s.serve(p, r)
		s.freeRequest(r)
	})
	s.env.Run(start + 1)
	if len(f.replies) != n+1 {
		t.Fatalf("%v: %d replies, want 1", op, len(f.replies)-n)
	}
	end := f.at[n] + fakeNet
	tr.End(end, "net", "reply", tid)
	tr.End(end, "client0", name, id)
	return f.replies[n].Status
}

// stageSequence returns the request's stage-span labels in the order
// they opened, plus its critical path.
func stageSequence(t *testing.T, tr *trace.Tracer, id uint64) ([]string, *critpath.Path) {
	t.Helper()
	tid := TraceID(0, id)
	var stages []trace.Event
	for _, ev := range tr.Events() {
		if ev.Req == tid && ev.Kind == trace.KindService && ev.PComp == "" {
			stages = append(stages, ev)
		}
	}
	sort.SliceStable(stages, func(i, j int) bool { return stages[i].At < stages[j].At })
	var seq []string
	for _, ev := range stages {
		seq = append(seq, ev.Component+"/"+ev.Name)
	}
	a := critpath.Analyze(tr.Events())
	for i := range a.Paths {
		if a.Paths[i].Req == tid {
			return seq, &a.Paths[i]
		}
	}
	t.Fatalf("no critical path for request %d", id)
	return nil, nil
}

// TestPipelineStagesTileExactly drives a write and a read of the same
// block through the shared pipeline under every replication protocol:
// the stage spans open in pipeline order, and the critical path tiles
// each request's latency exactly, every stage carrying precisely the
// fake datapath's cost.
func TestPipelineStagesTileExactly(t *testing.T) {
	ps := func(sec float64) int64 { return int64(sec*1e12 + 0.5) }
	for _, proto := range Protocols() {
		t.Run(proto.String(), func(t *testing.T) {
			s, f, tr := newFakePipeline(t, proto)
			block := bytes.Repeat([]byte("pipeline "), 512)[:4096]
			if st := drive(t, s, f, tr, blockstore.OpWrite, 1, block); st != blockstore.StatusOK {
				t.Fatalf("write status %v", st)
			}
			hops := 1.0
			if proto == ProtoChain {
				hops = 3
			}
			seq, path := stageSequence(t, tr, 1)
			want := []string{"net/request", "mt/parse", "mt/compress", "mt/replicate", "mt/ack", "net/reply"}
			checkStages(t, seq, want, path, map[string]int64{
				"net/request": ps(fakeNet), "mt/parse": ps(fakeParse), "mt/compress": ps(fakeCompress),
				"mt/replicate.wait": ps(hops * fakeStorage), "net/reply": ps(fakeNet),
			})

			f.fetch, f.stored = blockstore.StatusOK, mustFrame(t, block)
			if st := drive(t, s, f, tr, blockstore.OpRead, 2, nil); st != blockstore.StatusOK {
				t.Fatalf("read status %v", st)
			}
			seq, path = stageSequence(t, tr, 2)
			want = []string{"net/request", "mt/parse", "mt/fetch", "mt/decompress", "net/reply"}
			checkStages(t, seq, want, path, map[string]int64{
				"net/request": ps(fakeNet), "mt/parse": ps(fakeParse), "mt/fetch": ps(fakeStorage),
				"mt/decompress": ps(fakeDecompress), "net/reply": ps(fakeNet),
			})
			if s.WritesDone != 1 || s.ReadsDone != 1 || len(s.pending) != 0 {
				t.Fatalf("writes %d reads %d pending %d after one of each", s.WritesDone, s.ReadsDone, len(s.pending))
			}
		})
	}
}

func checkStages(t *testing.T, seq, want []string, path *critpath.Path, durs map[string]int64) {
	t.Helper()
	if len(seq) != len(want) {
		t.Fatalf("stage spans %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("stage spans %v, want %v", seq, want)
		}
	}
	var sum int64
	got := map[string]int64{}
	for _, seg := range path.Segments {
		sum += seg.Dur
		got[seg.Stage] += seg.Dur
	}
	if sum != path.E2E {
		t.Fatalf("segments sum to %d ps, e2e is %d ps", sum, path.E2E)
	}
	for stage, d := range durs {
		if got[stage] != d {
			t.Errorf("critical path blames %s for %d ps, want %d (segments %+v)", stage, got[stage], d, path.Segments)
		}
	}
}

func mustFrame(t *testing.T, block []byte) []byte {
	t.Helper()
	fr, err := lz4.EncodeFrame(block, lz4.LevelDefault)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// TestPipelineReadErrorTails pins the pipeline's three read failure
// replies under every protocol: no reachable replica answers
// StatusError without fetching, a non-OK fetch answers with that
// status, and a stored frame that fails to decode answers
// StatusCorrupt.
func TestPipelineReadErrorTails(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto.String(), func(t *testing.T) {
			s, f, tr := newFakePipeline(t, proto)
			block := bytes.Repeat([]byte{0x5a}, 4096)
			if st := drive(t, s, f, tr, blockstore.OpWrite, 1, block); st != blockstore.StatusOK {
				t.Fatalf("write status %v", st)
			}

			f.fetch, f.stored = blockstore.StatusNotFound, nil
			if st := drive(t, s, f, tr, blockstore.OpRead, 2, nil); st != blockstore.StatusNotFound {
				t.Errorf("non-OK fetch replied %v, want %v", st, blockstore.StatusNotFound)
			}

			f.fetch, f.stored = blockstore.StatusOK, []byte("not an lz4 frame")
			if st := drive(t, s, f, tr, blockstore.OpRead, 3, nil); st != blockstore.StatusCorrupt {
				t.Errorf("undecodable frame replied %v, want %v", st, blockstore.StatusCorrupt)
			}
			seq, _ := stageSequence(t, tr, 3)
			if want := "net/request mt/parse mt/fetch mt/decompress net/reply"; strings.Join(seq, " ") != want {
				t.Errorf("corrupt read stages %v, want %s", seq, want)
			}

			for i := range s.serverDown {
				s.serverDown[i] = true
			}
			if st := drive(t, s, f, tr, blockstore.OpRead, 4, nil); st != blockstore.StatusError {
				t.Errorf("unroutable read replied %v, want %v", st, blockstore.StatusError)
			}
			// A single-replica read fails before fetching; a quorum read
			// finds no read quorum inside its fetch stage.
			want := "net/request mt/parse net/reply"
			if proto == ProtoQuorum {
				want = "net/request mt/parse mt/fetch net/reply"
			}
			if seq, _ = stageSequence(t, tr, 4); strings.Join(seq, " ") != want {
				t.Errorf("unroutable read stages %v, want %s", seq, want)
			}
			if s.ReadsDone != 3 || len(s.pending) != 0 {
				t.Fatalf("reads %d pending %d after three failed reads", s.ReadsDone, len(s.pending))
			}
		})
	}
}

// TestDecompressCorruptFramePerDesign feeds each real design's
// decompress a stored frame that claims compression but does not
// decode: every design must report StatusCorrupt rather than panic or
// return garbage.
func TestDecompressCorruptFramePerDesign(t *testing.T) {
	for _, kind := range []Kind{CPUOnly, Accel, BF2, SmartDS} {
		t.Run(kind.String(), func(t *testing.T) {
			s := newTestServer(t, kind)
			r := &request{hdr: blockstore.Header{Op: blockstore.OpRead}, core: s.cores[0]}
			pr := &pendingReq{payload: []byte("garbage frame bytes"), size: 19,
				hdr: blockstore.Header{Flags: blockstore.FlagCompressed}}
			var st blockstore.Status
			s.env.Go("test.decompress", func(p *sim.Proc) { _, st = s.dp.decompress(p, r, pr) })
			s.env.Run(1)
			if st != blockstore.StatusCorrupt {
				t.Fatalf("%v decompress of a corrupt frame = %v, want %v", kind, st, blockstore.StatusCorrupt)
			}
		})
	}
}
