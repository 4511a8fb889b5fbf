package middletier

// ReplayCompressedLengths installs the modeled-replay seam on s: every
// functional compression records its output length in lens under the
// request's trace id, and every modeled compression of a request found
// in lens takes the recorded length in place of size/modelRatio.
func ReplayCompressedLengths(s *Server, lens map[uint64]float64) { s.replay = lens }
