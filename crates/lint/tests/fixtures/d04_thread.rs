// Fixture: D04 violations — threads, ambient randomness, thread identity, host parallelism, addresses.

fn run() {
    std::thread::spawn(|| work());
    let seed = rand::random::<u64>();
    let h = thread_rng();
    let id = thread::current().id();
    let workers = available_parallelism();
    let addr = format!("{:p}", &seed);
}
