#[cfg(test)]
mod tests {
    pub fn helper(b: &[u8]) -> u8 {
        assert!(!b.is_empty());
        b[0]
    }
}
