//! Runs every experiment in sequence, sharing the expensive corpus cache.
//! `FIS_SCALE=full` switches to paper-sized corpora.
fn main() {
    use fis_bench::experiments as exp;
    let started = std::time::Instant::now();
    exp::fig1b();
    exp::fig7();
    let rows = exp::build_cache(16);
    exp::table1(&rows);
    exp::fig8_fig9(&rows);
    exp::fig12(&rows);
    let (dims, max_buildings, repeats) = exp::sweep_sizes();
    exp::fig10_fig11(&dims, max_buildings);
    exp::fig14(max_buildings, repeats);
    println!("\nexperiment suite completed in {:.0?}", started.elapsed());
}
