// Fixture for sink-marker defects: a dangling marker, a bad kind token
// and a duplicate. Defects are asserted directly by TestMarkDefects — a
// want annotation on a marker line would corrupt the marker's own parse.
package netsim

// A dangling sink marker: attached to nothing.
//
//mantra:sink serialization

var _ = 0

//mantra:sink compression
func defectBadSink([]byte) {}

//mantra:sink serialization
//mantra:sink serialization
func defectDupSink([]byte) {}
