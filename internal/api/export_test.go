package api

// ParseEdge exposes the typed decoder to the external tests, which drive
// a whole deployment and so cannot live inside the package.
var ParseEdge = parseEdge
