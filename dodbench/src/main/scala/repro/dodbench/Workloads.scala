package repro.dodbench

import repro.data.{DatasetSpec, Datasets}

/** One DOD query `(r, k)`. */
final case class Query(r: Double, k: Int)

/** One benchmark workload: a dataset, the grid of queries a pass runs on
  * each graph, how many differently seeded MRPGs a run builds (averaging
  * over several graphs steadies counts that depend on one graph's
  * randomness), and whether they are built in set-up (one per set-up; only
  * queries are timed) or inside the timed part.
  */
final case class Workload(
    name: String,
    spec: DatasetSpec,
    grid: Seq[Query],
    graphs: Int,
    buildInSetup: Boolean,
)

object Workloads {

  /** `r ∈ rFactors·r₀` × `k ∈ kFactors·k₀` around the Table 2 default. */
  private def grid(spec: DatasetSpec, rFactors: Seq[Double], kFactors: Seq[Double]): Seq[Query] =
    for (rf <- rFactors; kf <- kFactors) yield Query(spec.r * rf, math.max(1, (spec.k * kf).toInt))

  // glove-build: the MRPG build (Table 3) dominates; the single default
  // query is decided almost entirely by the §5.5 shortcut.
  // deep-sweep: index built in set-up, timed part is detection only; k=100
  // exceeds K' = 80, so the shortcut is skipped and linear-scan
  // verification runs.
  // words-mixed: the costly edit-distance metric and VP-tree verification
  // exercise the same layers with a different kernel and ExactCounter.
  val all: Seq[Workload] = Seq(
    Workload("glove-build", Datasets.glove,
      Seq(Query(Datasets.glove.r, Datasets.glove.k)), graphs = 1, buildInSetup = false),
    Workload("deep-sweep", Datasets.deep,
      grid(Datasets.deep, Seq(1.0, 1.25), Seq(0.5, 1.0, 2.0)), graphs = 3, buildInSetup = true),
    Workload("words-mixed", Datasets.words,
      grid(Datasets.words, Seq(0.75, 1.0, 1.25), Seq(0.5, 1.0, 2.0)), graphs = 3, buildInSetup = false),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name (one of ${all.map(_.name).mkString(", ")})"))
}
