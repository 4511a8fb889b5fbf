// Writepath: the paper's Listing 1, line for line, against the Table 2
// API — serve write requests by splitting each message (header to host
// memory, payload to device memory), compressing on the hardware
// engine, and forwarding to a storage server.
//
//	go run ./examples/writepath
package main

import (
	"fmt"

	"github.com/disagg/smartds/internal/blockstore"
	"github.com/disagg/smartds/internal/core"
	"github.com/disagg/smartds/internal/corpus"
	"github.com/disagg/smartds/internal/lz4"
	"github.com/disagg/smartds/internal/mem"
	"github.com/disagg/smartds/internal/metrics"
	"github.com/disagg/smartds/internal/netsim"
	"github.com/disagg/smartds/internal/rdma"
	"github.com/disagg/smartds/internal/sim"
)

const (
	headSize = blockstore.HeaderSize
	maxSize  = 8192
	nBlocks  = 64
)

func main() {
	env := sim.NewEnv()
	fabric := netsim.NewFabric(env, netsim.DefaultConfig())
	hostMem := mem.New(env, mem.DefaultConfig())

	// The SmartDS card: one RoCE instance, one LZ4 engine, HBM.
	devCfg := core.DefaultConfig(1)
	dev := core.NewDevice(env, "sds", fabric, hostMem, devCfg)

	// A remote VM and a remote storage server (plain RDMA peers).
	vm := rdma.NewStack(env, fabric.NewPort("vm", 12.5e9), rdma.DefaultConfig())
	ss := rdma.NewStack(env, fabric.NewPort("ss", 12.5e9), rdma.DefaultConfig())

	/* Allocating host and device memory buffers */
	hBufRecv := dev.HostAlloc(maxSize)
	hBufSend := dev.HostAlloc(maxSize)
	dBufRecv, _ := dev.DevAlloc(maxSize)
	dBufSend, _ := dev.DevAlloc(maxSize)

	/* Open RoCE instance 0 */
	ctx, _ := dev.OpenRoCEInstance(0)

	/* Connect queue pairs with remote client and storage server */
	qpRecv := ctx.CreateQP()
	remoteVM := vm.CreateQP()
	rdma.Connect(qpRecv, remoteVM)
	qpSend := ctx.CreateQP()
	remoteSS := ss.CreateQP()
	rdma.Connect(qpSend, remoteSS)

	// The storage server acknowledges every block it receives.
	stored := 0
	storedBytes := 0
	remoteSS.OnRecv = func(m *rdma.Message) {
		stored++
		storedBytes += len(m.Data)
	}

	// The VM issues write requests: header + 4 KB block.
	blocks := corpus.New(7)
	env.Go("vm", func(p *sim.Proc) {
		for i := 0; i < nBlocks; i++ {
			block := blocks.Block(4096)
			h := blockstore.Header{
				Op: blockstore.OpWrite, VMID: 1, ReqID: uint64(i + 1),
				OrigLen: uint32(len(block)), CRC: lz4.Checksum(block),
			}
			// Every fourth write is latency-sensitive: no compression.
			if i%4 == 3 {
				h.Flags |= blockstore.FlagLatencySensitive
			}
			p.Wait(remoteVM.Send(blockstore.Message(&h, block)))
		}
	})

	// The engine's functional LZ4 encode of the received payload into
	// the send buffer, bound once: the engine runs it when it first
	// needs the compressed size.
	payloadSize := 0
	encode := func() float64 {
		n, err := lz4.Compress(dBufSend.Bytes(), dBufRecv.Bytes()[:payloadSize], lz4.LevelDefault)
		if err != nil {
			panic(err)
		}
		return float64(n)
	}

	// The middle-tier software loop: Listing 1.
	compressedTotal, rawTotal := 0, 0
	env.Go("middle-tier", func(p *sim.Proc) {
		for served := 0; served < nBlocks; served++ {
			/* Recv a write request: header to host memory, payload stays
			   in the SmartNIC's memory */
			e := ctx.DevMixedRecv(qpRecv, hBufRecv, headSize, dBufRecv, maxSize)
			res := core.Poll(p, e)
			payloadSize = res.Size

			/* User's logic flexibly parses the content in h_buf_recv and
			   prepares the send header */
			parsed, err := blockstore.Decode(hBufRecv.Bytes())
			if err != nil {
				panic(err)
			}
			out := blockstore.Header{
				Op: blockstore.OpReplicate, ReqID: parsed.ReqID,
				OrigLen: parsed.OrigLen, CRC: parsed.CRC,
			}
			out.EncodeTo(hBufSend.Bytes())

			if parsed.Flags&blockstore.FlagLatencySensitive != 0 {
				/* Directly send a latency-sensitive block to the storage
				   server */
				e = ctx.DevMixedSend(qpSend, hBufSend, headSize, dBufRecv, payloadSize)
				core.Poll(p, e)
				rawTotal += payloadSize
			} else {
				/* Compress the data block via hardware engine 0 */
				e = ctx.DevFunc(float64(payloadSize), encode)
				r := core.Poll(p, e)
				compressedSize := r.Size
				/* Send the compressed block to the storage server */
				e = ctx.DevMixedSend(qpSend, hBufSend, headSize, dBufSend, compressedSize)
				core.Poll(p, e)
				compressedTotal += compressedSize
				rawTotal += payloadSize
			}
		}
	})

	env.Run(0)

	fmt.Printf("served %d write requests in %s of virtual time\n",
		nBlocks, metrics.FormatDuration(env.Now()))
	fmt.Printf("storage server received %d messages (%s)\n",
		stored, metrics.FormatBytes(float64(storedBytes)))
	fmt.Printf("engine compressed %s of blocks into %s (%.2fx)\n",
		metrics.FormatBytes(float64(rawTotal)*0.75),
		metrics.FormatBytes(float64(compressedTotal)),
		float64(rawTotal)*0.75/float64(compressedTotal))
	p := dev.PCIe().Snapshot()
	fmt.Printf("PCIe traffic: only %s D2H + %s H2D crossed to the host\n",
		metrics.FormatBytes(p.D2HBytes), metrics.FormatBytes(p.H2DBytes))
}
