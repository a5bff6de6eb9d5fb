//go:build !unix || aix

package api

// peek cannot look at the socket without a read where the syscall
// package has no MSG_DONTWAIT: a connection the server has closed is
// found by the exchange that fails on it.
func (pc *conn) peek(uintptr) { pc.open = true }
