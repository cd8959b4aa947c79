import repro.core.{Practical, ReqSketch, ReqSpark}

/** Thread CPU time of the sketch work in perfbench's `ingest` and `rollup`,
  * without their data generation, checks and JVM start-up:
  *  - `build`: 256 chunk sketches of 2^14 uniform doubles each, each encoded
  *    with `toBytes` (`rollup`'s set-up);
  *  - `fold`: `fromBytes` and left-fold `merge` of those chunks, then
  *    `toBytes` (one `rollup` pass);
  *  - `ingest`: one sketch fed all 2^22 doubles.
  * Prints the median over `rounds` rounds, the first two dropped as warm-up.
  *
  * Compile against a commit's main sources and run, one JVM per commit and
  * seed, with the Scala compiler in Spark's jars (from the repository root):
  * {{{
  * mkdir -p .bench_build/probe
  * java -cp "$SPARK_HOME/jars/"\* scala.tools.nsc.Main -usejavacp -d .bench_build/probe \
  *   $(find src/main/scala -name '*.scala') scripts/CpuProbe.scala
  * java -Xmx2g -cp .bench_build/probe:"$SPARK_HOME/jars/"\* CpuProbe <seed> <rounds>
  * }}}
  */
object CpuProbe {
  def main(args: Array[String]): Unit = {
    val seed = args(0).toLong
    val rounds = args(1).toInt
    val (chunks, c) = (256, 1 << 14)
    val rng = new java.util.Random(seed)
    val data = Array.fill(chunks * c)(rng.nextDouble())
    val mx = java.lang.management.ManagementFactory.getThreadMXBean
    def ms(f: => Unit): Double = {
      val t0 = mx.getCurrentThreadCpuTime; f; (mx.getCurrentThreadCpuTime - t0) / 1e6
    }
    def feed(s: ReqSketch, from: Int, until: Int): ReqSketch = {
      var i = from
      while (i < until) { s.update(data(i)); i += 1 }
      s
    }
    val times = Array.fill(3)(new Array[Double](rounds))
    var stored = 0L
    for (r <- 0 until rounds) {
      var bytes: Array[Array[Byte]] = null
      times(0)(r) = ms {
        bytes = Array.tabulate(chunks) { i =>
          ReqSketch.toBytes(feed(ReqSketch(0.01, 0.05, Practical, ReqSpark.mixSeed(seed, i)), i * c, (i + 1) * c))
        }
      }
      times(1)(r) = ms {
        var acc = ReqSketch.fromBytes(bytes(0))
        for (i <- 1 until chunks) acc = acc.merge(ReqSketch.fromBytes(bytes(i)))
        stored = ReqSketch.toBytes(acc).length.toLong
      }
      times(2)(r) = ms { stored += feed(ReqSketch(0.01, 0.05, Practical, seed), 0, data.length).itemsStored }
    }
    def median(a: Array[Double]): Double = { val s = a.drop(2).sorted; s(s.length / 2) }
    println(f"build_ms ${median(times(0))}%.1f fold_ms ${median(times(1))}%.1f " +
      f"ingest_ms ${median(times(2))}%.1f check $stored")
  }
}
