//go:build unix

package cluster

import "syscall"

// writeNow writes b to the non-blocking socket fd as far as its send buffer
// takes it, without waiting, and returns how much it wrote.
func writeNow(fd uintptr, b []byte) int {
	n, _ := syscall.Write(int(fd), b)
	return max(n, 0)
}
