package seglog

// WalkFrames lets the fuzz target feed bytes straight to the frame
// scanner.
var WalkFrames = walkFrames
