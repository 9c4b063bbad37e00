//! Head-to-head comparison of all five algorithms of the paper on one
//! workload across machine sizes — a miniature of the Fig. 4 experiment.
//!
//! Run: `cargo run --release --example compare_schedulers`

use flb::prelude::*;

fn main() {
    let topology = Family::Stencil.topology(500);
    let graph = CostModel::paper_default(5.0).apply(&topology, 7);
    println!(
        "workload: {} — {} tasks, CCR {:.2} (communication-dominated)\n",
        graph.name(),
        graph.num_tasks(),
        graph.ccr()
    );

    use AlgorithmId as A;
    let algorithms = [A::Mcp, A::Etf, A::DscLlb, A::Fcp, A::Flb].map(A::scheduler);

    print!("{:<10}", "P");
    for a in &algorithms {
        print!("{:>12}", a.name());
    }
    println!();

    for p in [2usize, 4, 8, 16, 32] {
        let machine = Machine::new(p);
        let mcp_span = algorithms[0].schedule(&graph, &machine).makespan();
        print!("{p:<10}");
        for a in &algorithms {
            let s = a.schedule(&graph, &machine);
            validate(&graph, &s).expect("valid schedule");
            // NSL: schedule length normalised to MCP (the paper's Fig. 4).
            print!("{:>12.3}", nsl(&s, mcp_span));
        }
        println!();
    }

    println!("\n(values are NSL = makespan / MCP's makespan; lower is better)");
}
