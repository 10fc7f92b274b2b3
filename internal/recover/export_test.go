package recovery

// TotalRetries exposes the run-wide retry budget to the external tests.
const TotalRetries = totalRetries
