//go:build unix && !aix

package api

import "syscall"

// peek looks at the socket without taking or waiting for a byte: it is
// open when there is nothing to read yet. A zero-length read is the
// server's close; a byte is one nobody asked for.
func (pc *conn) peek(fd uintptr) {
	_, _, err := syscall.Recvfrom(int(fd), pc.peekBuf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	pc.open = err == syscall.EAGAIN
}
