//! Regression: reported columns are 1-based *character* columns, not
//! byte offsets. A multi-byte identifier earlier on the line must not
//! shift the span of a later violation.

#[test]
fn columns_count_chars_not_bytes_on_multibyte_lines() {
    let line = "pub fn π_total() {} pub fn f(n: usize) { assert!(n > 0); }";
    let byte_off = line.find("f(n").unwrap();
    let byte_col = byte_off + 1;
    let char_col = line[..byte_off].chars().count() + 1;
    assert_ne!(byte_col, char_col, "the fixture line must contain multi-byte chars");

    let findings =
        ixp_lint::scan_sources(vec![("crates/wire/src/x.rs".to_string(), format!("{line}\n"))]);
    let f = findings.iter().find(|f| f.rule == "panic-path").expect("panic-path fires");
    assert_eq!(f.line, 1);
    assert_eq!(f.col as usize, char_col, "column must be the char column");
}
