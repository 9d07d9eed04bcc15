package treeroute

// The internal tests' build-and-compare helpers, for the external test
// package: it walks schemes on compiled dataplane tables, and dataplane
// imports treeroute, so those tests cannot live in this package.
var (
	BuildBoth           = buildBoth
	RequireSchemesEqual = requireSchemesEqual
)
