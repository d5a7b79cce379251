//go:build !unix

package cluster

// writeNow writes nothing: without a non-blocking write, the session's
// writer writes every reply.
func writeNow(fd uintptr, b []byte) int { return 0 }
