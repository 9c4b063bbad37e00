//! Golden input: panics in the cache-key peek.
//! Analyzed as `crates/flb-service/src/fingerprint.rs` — the peek reads
//! length fields out of request payloads before anything is decoded, so
//! it is held to the wire standard: `[]` indexing is flagged alongside
//! unwrap/expect/panic.

pub fn peek_task_count(payload: &[u8]) -> u32 {
    let kind = payload.first().expect("kind byte"); // finding: expect
    if *kind != 1 {
        unreachable!("not a schedule request"); // finding: unreachable!
    }
    let count = &payload[10..14]; // finding: payload indexing
    u32::from_le_bytes(count.try_into().unwrap_or_default())
}
