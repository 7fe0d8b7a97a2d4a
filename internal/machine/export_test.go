package machine

// CompareGolden exposes the golden-file helper to the external test package.
var CompareGolden = compareGolden
