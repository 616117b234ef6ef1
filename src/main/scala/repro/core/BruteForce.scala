package repro.core

/** Ground-truth helpers: O(n^2) neighbor counting with the same early
  * termination every evaluated algorithm uses. This doubles as the
  * sequential Nested-loop baseline core [Knorr & Ng, VLDB'98].
  */
object BruteForce {

  /** Number of neighbors of `p` within `r`, counting stops at `cap`. */
  def countNeighbors(space: MetricSpace, p: Int, r: Double, cap: Int): Int = {
    var count = 0
    var i = 0
    val n = space.n
    while (i < n && count < cap) {
      if (i != p && space.dist(p, i) <= r) count += 1
      i += 1
    }
    count
  }

  /** Exact neighbor count of `p` (no cap). */
  def exactCount(space: MetricSpace, p: Int, r: Double): Int =
    countNeighbors(space, p, r, Int.MaxValue)

  /** Rejects an `(r, k)` no DOD algorithm can answer: a NaN, negative or
    * infinite `r`, or `k < 1`. Every DOD entry point calls it.
    */
  def requireQuery(r: Double, k: Int): Unit = {
    require(java.lang.Double.isFinite(r) && r >= 0, s"r must be finite and >= 0, got $r")
    require(k >= 1, s"k must be >= 1, got $k")
  }

  /** All distance-based outliers (objects with fewer than `k` neighbors). */
  def outliers(space: MetricSpace, r: Double, k: Int): Array[Int] = {
    requireQuery(r, k)
    val out = Array.newBuilder[Int]
    var p = 0
    while (p < space.n) {
      if (countNeighbors(space, p, r, k) < k) out += p
      p += 1
    }
    out.result()
  }

  /** Exact K nearest neighbors of `p` (excluding itself), ascending by
    * distance; ties broken by id for determinism. One bounded sorted
    * insertion per candidate: ids arrive ascending, so an entry moves up only
    * past strictly larger distances (`java.lang.Double.compare`, the order
    * of sorting `(distance, id)` pairs).
    */
  def knn(space: MetricSpace, p: Int, k: Int): Array[Int] = {
    val n = space.n
    val cap = math.max(0, math.min(k, n - 1))
    val ids = new Array[Int](cap)
    val ds = new Array[Double](cap)
    var size = 0
    var i = 0
    while (i < n) {
      if (i != p) {
        val d = space.dist(p, i)
        if (size < cap || (cap > 0 && java.lang.Double.compare(d, ds(cap - 1)) < 0)) {
          if (size < cap) size += 1
          var pos = size - 1
          while (pos > 0 && java.lang.Double.compare(ds(pos - 1), d) > 0) {
            ids(pos) = ids(pos - 1); ds(pos) = ds(pos - 1); pos -= 1
          }
          ids(pos) = i; ds(pos) = d
        }
      }
      i += 1
    }
    ids
  }
}
