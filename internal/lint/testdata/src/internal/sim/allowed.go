package sim

import "time"

// A justified waiver suppresses the diagnostic on the next line.
//
//dophy:allow determflow -- wall-clock is the quantity under test here
var now = time.Now
