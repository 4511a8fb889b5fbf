// Package rdma mirrors the receive path of internal/rdma/rdma.go
// (QP.onData, a //hot root pinned by TestSendAckAllocs) with the
// defect the mutation audit planted there: the stale-epoch drop builds
// an error value. TestSendAckAllocs never reconnects a QP, so the
// branch never runs under the pin and every test passes; hotalloc is
// the only check that catches it.
package rdma

import "fmt"

type QPID struct{ Node, QPN int }

type packet struct{ epoch, seq uint64 }

type QP struct {
	id       QPID
	epoch    uint64
	recvNext uint64
	lastErr  error
}

//hot:per-message transport path
func (qp *QP) onData(pkt *packet) {
	if pkt.epoch != qp.epoch {
		qp.lastErr = fmt.Errorf("rdma: stale epoch %d on %v", pkt.epoch, qp.id) // want `fmt\.Errorf allocates` `interface boxing of uint64 allocates` `interface boxing of rdma\.QPID allocates`
		return
	}
	if pkt.seq == qp.recvNext {
		qp.recvNext++
	}
}
