package journal

// Declined returns how many payloads jr handed to json.Unmarshal
// because the decoder declined them.
func Declined(jr *Reader) int { return jr.declined }
