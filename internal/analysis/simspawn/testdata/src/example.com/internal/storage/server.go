// Package storage mirrors the write handler of
// internal/storage/server.go (Server.serveWrite) with the defect the
// mutation audit planted there: a progress feed published by a
// non-blocking channel send. The send never blocks, so no test hangs
// or fails and simblock, which treats a select with a default as
// non-blocking, stays quiet; simspawn is the only check that catches
// it.
package storage

var writeFeed = make(chan uint64, 1) // want `channel construction in simulation code`

type Server struct{ Writes uint64 }

func (s *Server) serveWrite() {
	s.Writes++
	select { // want `select races channels in host time`
	case writeFeed <- s.Writes: // want `raw channel send synchronizes in host time`
	default:
	}
}
