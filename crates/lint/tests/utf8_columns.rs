//! Regression: reported columns are 1-based *character* columns, not
//! byte offsets. A multi-byte identifier earlier on the line must not
//! shift the span of a later violation.

#[test]
fn columns_count_chars_not_bytes_on_multibyte_lines() {
    let line = "    let π_total = v.unwrap();";
    let src = format!("pub fn f(v: Option<u8>) -> u8 {{\n{line}\n    π_total\n}}\n");
    let byte_off = line.find("unwrap").unwrap();
    let byte_col = byte_off + 1;
    let char_col = line[..byte_off].chars().count() + 1;
    assert_ne!(byte_col, char_col, "the fixture line must contain multi-byte chars");

    let findings =
        ixp_lint::scan_sources(vec![("crates/wire/src/x.rs".to_string(), src)]);
    let f = findings.iter().find(|f| f.rule == "no-unwrap").expect("no-unwrap fires");
    assert_eq!(f.line, 2);
    assert_eq!(f.col as usize, char_col, "column must be the char column");
}
