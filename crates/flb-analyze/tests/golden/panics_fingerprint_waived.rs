//! Golden input: a bounds-guarded peek indexing site, waived.
//! Analyzed as `crates/flb-service/src/fingerprint.rs`.

pub fn peek_task_count(payload: &[u8]) -> Option<u32> {
    if payload.len() < 14 {
        return None;
    }
    // flb-analyze: allow(no-panic-in-request-path, reason="the len() < 14 guard above makes payload[10..14] in bounds")
    let count = &payload[10..14];
    Some(u32::from_le_bytes(count.try_into().ok()?))
}
