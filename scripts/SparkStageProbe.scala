import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, count, expr, lit}
import scala.jdk.CollectionConverters._
import repro.SynthData
import repro.core.ReqSpark

/** Executor CPU, wall time and bytes moved, stage by stage, of one perfbench
  * `spark-groupby` pass and of two references on the same cached frame:
  *  - `groupby`: the REQ `GROUP BY` (`reqUdaf`, then `quantileUdf` at three
  *    φ), collected;
  *  - `sketchColumn`: `ReqSpark.sketchColumn` of the value column, depth 2;
  *  - `count`: `count(1)` per key, the floor of any per-key aggregate;
  *  - `kll`: Spark's `kll_sketch_agg_double(v)` per key.
  * The frame is perfbench's: 2^21 rows (or `rows`), 16 zipf keys, 8
  * partitions, cached, on `local[<cores>]`. After two warm-up rounds, each
  * round runs the four once; a `SparkListener` sums executor CPU and run
  * time, shuffle write bytes and task result bytes per completed stage
  * (stages are numbered in job order within a round; skipped stages are not
  * counted). Prints, per query, the median over rounds of wall time and of
  * each stage's CPU, run time and bytes, with the bytes summed over stages
  * beside the CPU total, then the same as one JSON line.
  *
  * Compile against a commit's main sources and run, one JVM per commit,
  * with the Scala compiler in Spark's jars (from the repository root):
  * {{{
  * mkdir -p .bench_build/stage-probe
  * java -cp "$SPARK_HOME/jars/"\* scala.tools.nsc.Main -usejavacp -d .bench_build/stage-probe \
  *   $(find src/main/scala -name '*.scala') scripts/SparkStageProbe.scala
  * java -Xmx2g $(for p in java.lang java.lang.invoke java.lang.reflect java.io java.net java.nio \
  *     java.util java.util.concurrent java.util.concurrent.atomic jdk.internal.ref sun.nio.ch \
  *     sun.nio.cs sun.security.action sun.util.calendar; do echo --add-opens=java.base/$p=ALL-UNNAMED; done) \
  *   -cp .bench_build/stage-probe:"$SPARK_HOME/jars/"\* SparkStageProbe <seed> <rounds> [rows]
  * }}}
  */
object SparkStageProbe {

  /** Per-stage totals of the jobs run under a job group named `query/round`. */
  final class StageTimes extends SparkListener {
    private val groupOfStage = new ConcurrentHashMap[Int, String]()
    // (cpu ns, run ms, tasks, shuffle write bytes, task result bytes)
    val stages = new ConcurrentHashMap[(String, Int), (Long, Long, Int, Long, Long)]()
    val started, ended = new AtomicLong

    override def onJobStart(e: SparkListenerJobStart): Unit = {
      started.incrementAndGet()
      val group = Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
      if (group != null) e.stageIds.foreach(id => groupOfStage.put(id, group))
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.incrementAndGet()

    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
      val info = e.stageInfo
      val group = groupOfStage.get(info.stageId)
      val m = info.taskMetrics
      if (group != null && m != null)
        stages.put((group, info.stageId), (m.executorCpuTime, m.executorRunTime, info.numTasks,
          m.shuffleWriteMetrics.bytesWritten, m.resultSize))
    }
  }

  def main(args: Array[String]): Unit = {
    val seed = args(0).toLong
    val rounds = args(1).toInt
    val rows = if (args.length > 2) args(2).toLong else 1L << 21
    val cores = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("stage-probe")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.sql.adaptive.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val times = new StageTimes
    spark.sparkContext.addSparkListener(times)
    try {
      val df = SynthData.zipfKeys(spark, rows, 16, seed = seed).repartition(8).cache()
      df.count()
      val udaf = ReqSpark.reqUdaf(seed = ReqSpark.mixSeed(seed, 1))
      val quantiles = Seq(0.01, 0.5, 0.99).map(ReqSpark.quantileUdf)
      val queries: Seq[(String, () => Unit)] = Seq(
        "groupby" -> { () =>
          df.groupBy("k").agg(udaf(col("v")).as("s"))
            .select(Seq(col("k"), col("s")) ++ quantiles.map(_(col("s"))): _*).collect()
        },
        "sketchColumn" -> { () => ReqSpark.sketchColumn(df, "v", seed = ReqSpark.mixSeed(seed, 2), depth = 2) },
        "count" -> { () => df.groupBy("k").agg(count(lit(1))).collect() },
        "kll" -> { () => df.groupBy("k").agg(expr("kll_sketch_agg_double(v)")).collect() })
      val warm = 2
      val wall = scala.collection.mutable.Map.empty[(String, Int), Double]
      for (r <- 0 until warm + rounds; (name, run) <- queries) {
        spark.sparkContext.setJobGroup(s"$name/$r", name)
        val t0 = System.nanoTime()
        run()
        wall((name, r)) = (System.nanoTime() - t0) / 1e9
        spark.sparkContext.clearJobGroup()
      }
      while (times.ended.get < times.started.get) Thread.sleep(50) // the listener bus drains
      Thread.sleep(500)

      def median(xs: Seq[Double]): Double = { val s = xs.sorted; s(s.length / 2) }
      val measured = warm until warm + rounds
      val json = queries.map { case (name, _) =>
        val perRound = measured.map { r =>
          val group = s"$name/$r"
          times.stages.asScala.toSeq.collect { case ((g, id), t) if g == group => (id, t) }.sortBy(_._1).map(_._2)
        }
        val nStages = perRound.map(_.length).max
        val stageStats = (0 until nStages).map { i =>
          val got = perRound.filter(_.length > i).map(_(i))
          (median(got.map(_._1 / 1e6)), median(got.map(_._2.toDouble)), got.head._3,
            median(got.map(_._4.toDouble)), median(got.map(_._5.toDouble)))
        }
        val w = median(measured.map(r => wall((name, r))))
        val stageText = stageStats.zipWithIndex.map { case ((cpu, run, tasks, shuffle, result), i) =>
          f"s$i cpu_ms $cpu%.0f run_ms $run%.0f tasks $tasks shuffle_write_b $shuffle%.0f result_b $result%.0f"
        }.mkString("; ")
        val cpuTotal = stageStats.map(_._1).sum
        val shuffleTotal = stageStats.map(_._4).sum
        val resultTotal = stageStats.map(_._5).sum
        println(f"$name%-12s wall_s $w%.3f cpu_ms $cpuTotal%.0f shuffle_write_b $shuffleTotal%.0f " +
          f"result_b $resultTotal%.0f  ($stageText)")
        val stagesJson = stageStats.map { case (cpu, run, tasks, shuffle, result) =>
          f"""{"cpu_ms": $cpu%.1f, "run_ms": $run%.1f, "tasks": $tasks, """ +
            f""""shuffle_write_bytes": $shuffle%.0f, "result_bytes": $result%.0f}"""
        }.mkString("[", ", ", "]")
        f""""$name": {"wall_s": $w%.4f, "cpu_ms": $cpuTotal%.1f, "shuffle_write_bytes": $shuffleTotal%.0f, """ +
          f""""result_bytes": $resultTotal%.0f, "stages": $stagesJson}"""
      }
      println(json.mkString(s"""{"seed": $seed, "rounds": $rounds, "rows": $rows, """, ", ", "}"))
    } finally spark.stop()
  }
}
