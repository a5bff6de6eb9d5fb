package api

import (
	"crypto/x509"
	"testing"
)

// ParseEdge exposes the typed decoder to the external tests, which drive
// a whole deployment and so cannot live inside the package.
var ParseEdge = parseEdge

// SetTLSRoots makes roots the pool clients built from now until the
// test ends verify https servers against.
func SetTLSRoots(t testing.TB, roots *x509.CertPool) {
	old := tlsRoots
	tlsRoots = roots
	t.Cleanup(func() { tlsRoots = old })
}
