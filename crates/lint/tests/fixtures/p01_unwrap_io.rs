// Fixture: P01 violations — unwrap/expect calls in binary code.

fn main() {
    let text = std::fs::read_to_string("config.toml").unwrap();
    let f = std::fs::File::create("out.jsonl").expect("create failed");
    let n: u32 = "42".parse().unwrap();
    process(&text, f, n);
}
