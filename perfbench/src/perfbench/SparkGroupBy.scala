package perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import repro.SynthData
import repro.core.{ReqSketch, ReqSpark}

/** The `spark-groupby` workload: per-key REQ sketches through the UDAF and
  * quantile UDF, then one sketch of the whole column through
  * `ReqSpark.sketchColumn`, on a cached zipf-keyed frame.
  */
object SparkGroupBy {
  private val TracedGroup = "perfbench-traced"

  def run(ctx: Ctx): Unit = {
    val cores = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", ctx.sizes.sparkPartitions.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val tasks = new TaskTotals
    spark.sparkContext.addSparkListener(tasks)
    try new SparkGroupBy(ctx, spark, tasks).run()
    finally spark.stop()
  }

  /** Totals of the tasks of jobs started in the traced job group. */
  final class TaskTotals extends SparkListener {
    private val tracedStages = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    private val tracedJobs = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    val jobsEnded = new AtomicLong
    val tasks, runMs, cpuNs, gcMs, shuffleWrite, shuffleRead, resultBytes = new AtomicLong

    override def onJobStart(e: SparkListenerJobStart): Unit =
      if (e.properties != null && e.properties.getProperty("spark.jobGroup.id") == TracedGroup) {
        tracedJobs.add(e.jobId)
        e.stageIds.foreach(id => tracedStages.add(id))
      }

    override def onJobEnd(e: SparkListenerJobEnd): Unit =
      if (tracedJobs.contains(e.jobId)) jobsEnded.incrementAndGet()

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      if (tracedStages.contains(e.stageId) && e.taskMetrics != null) {
        val m = e.taskMetrics
        tasks.incrementAndGet()
        runMs.addAndGet(m.executorRunTime)
        cpuNs.addAndGet(m.executorCpuTime)
        gcMs.addAndGet(m.jvmGCTime)
        shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
        shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
        resultBytes.addAndGet(m.resultSize)
      }
  }
}

final class SparkGroupBy(ctx: Ctx, spark: SparkSession, tasks: SparkGroupBy.TaskTotals) {
  import Loops.{MinPasses, time}
  import ctx.{checks, seed, sizes}

  private val rows = sizes.sparkRows
  private val udaf = ReqSpark.reqUdaf(seed = ReqSpark.mixSeed(seed, 1))
  private val quantileUdfs = Loops.Phis.drop(1).map(ReqSpark.quantileUdf)

  /** One pass: the GROUP BY, collected, then `sketchColumn`. */
  private final case class Pass(groups: Array[Row], sketch: ReqSketch, groupbyS: Double, sketchColumnS: Double)

  private def pass(df: DataFrame, tr: Option[Trace]): Pass = {
    def span[A](name: String)(f: => A): A = tr.fold(f)(_.span(name)(f))
    var groups: Array[Row] = null
    var sketch: ReqSketch = null
    val g = time(span("ReqSpark.groupby") {
      groups = df.groupBy("k").agg(udaf(col("v")).as("s"))
        .select(Seq(col("k"), col("s")) ++ quantileUdfs.map(_(col("s"))): _*)
        .collect()
    })
    val s = time(span("ReqSpark.sketchColumn") {
      sketch = ReqSpark.sketchColumn(df, "v", seed = ReqSpark.mixSeed(seed, 2), depth = 2)
    })
    Pass(groups, sketch, g, s)
  }

  /** Per-group answers kept for checking after the timed part. */
  private val answers = scala.collection.mutable.ArrayBuffer.empty[(Long, Double, Double, Int)]

  /** Per-group n must equal count(1); sketchColumn's n the row count. */
  private def checkPass(p: Pass, counts: Map[Long, Long], tr: Option[Trace] = None): Unit = {
    checks.check(p.groups.length == counts.size, s"spark-groupby: ${p.groups.length} groups, expected ${counts.size}")
    for (r <- p.groups) {
      val k = r.getLong(0)
      val s = Serde.fromBytes(r.getAs[Array[Byte]](1), tr)
      checks.check(s.n == counts.getOrElse(k, -1L), s"spark-groupby: group $k has n = ${s.n}, count(1) = ${counts.get(k)}")
      for (j <- quantileUdfs.indices)
        answers += ((k, Loops.Phis(j + 1), r.getDouble(2 + j), s.height))
    }
    checks.check(p.sketch.n == rows, s"spark-groupby: sketchColumn n = ${p.sketch.n}, expected $rows")
  }

  def run(): Unit = {
    var df: DataFrame = null
    val counts = ctx.setup {
      if (df != null) df.unpersist(blocking = true)
      df = SynthData.zipfKeys(spark, rows, sizes.sparkKeys, seed = seed)
        .repartition(sizes.sparkPartitions).cache()
      df.groupBy("k").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    }
    for (_ <- 0 until 2) { // warm-up: the passes keep speeding up until the second
      val warm = pass(df, None)
      checkPass(warm, counts)
      new Local(ctx).warmQueries(warm.sketch, Array(0.5))
    }
    val last = ctx.trace match {
      case None =>
        val rates = new Samples
        var p: Pass = null
        ctx.timed {
          val end = System.nanoTime() + (ctx.seconds * 1e9).toLong
          do {
            p = pass(df, None)
            rates.add(rows / (p.groupbyS + p.sketchColumnS))
            checkPass(p, counts)
          } while (System.nanoTime() < end || rates.size < MinPasses)
        }
        ctx.metric("items_per_s", rates.median)
        ctx.detail("pass_items_per_s", rates.values)
        p
      case Some(tr) =>
        val untraced = pass(df, None)
        checkPass(untraced, counts)
        spark.sparkContext.setJobGroup(SparkGroupBy.TracedGroup, "traced pass")
        val p = tr.span("spark-groupby.pass")(pass(df, Some(tr)))
        spark.sparkContext.clearJobGroup()
        ctx.metric("trace.overhead_ratio",
          (p.groupbyS + p.sketchColumnS) / (untraced.groupbyS + untraced.sketchColumnS))
        ctx.metric("ReqSpark.groupby_s", p.groupbyS)
        ctx.metric("ReqSpark.sketchColumn_s", p.sketchColumnS)
        sparkTaskMetrics()
        checkPass(p, counts, Some(tr))
        p
    }
    verify(df, last.sketch)
    if (ctx.trace.isDefined) Refs.spark(ctx, df)
  }

  private def sparkTaskMetrics(): Unit = {
    val expected = spark.sparkContext.statusTracker.getJobIdsForGroup(SparkGroupBy.TracedGroup).length
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (tasks.jobsEnded.get < expected && System.nanoTime() < deadline) Thread.sleep(10)
    ctx.metric("ReqSpark.spark.tasks", tasks.tasks.get.toDouble)
    ctx.metric("ReqSpark.spark.executor_run_s", tasks.runMs.get / 1e3)
    ctx.metric("ReqSpark.spark.executor_cpu_s", tasks.cpuNs.get / 1e9)
    ctx.metric("ReqSpark.spark.gc_s", tasks.gcMs.get / 1e3)
    ctx.metric("ReqSpark.spark.shuffle_write_bytes", tasks.shuffleWrite.get.toDouble)
    ctx.metric("ReqSpark.spark.shuffle_read_bytes", tasks.shuffleRead.get.toDouble)
    ctx.metric("ReqSpark.spark.result_bytes", tasks.resultBytes.get.toDouble)
  }

  /** Checks the per-group quantiles against the exact per-group ranks, then
    * the whole-column sketch against the whole column.
    */
  private def verify(df: DataFrame, sketch: ReqSketch): Unit = {
    val kv = df.select("k", "v").collect()
    val all = kv.map(_.getDouble(1))
    val byKey = kv.groupBy(_.getLong(0)).map { case (k, rs) =>
      val a = rs.map(_.getDouble(1)); java.util.Arrays.sort(a); k -> a
    }
    for ((k, phi, q, height) <- answers) {
      val group = byKey(k)
      checks.quantile(Exact.upperBound(group, q).toLong, math.ceil(phi * group.length).toLong, height,
        s"spark-groupby group $k quantile($phi)")
    }
    val target = ctx.trace.fold[Target](new ReqTarget(sketch))(tr => new TracedReq(sketch, tr, new UpdateStats))
    new Local(ctx).finish("spark-groupby", target, sketch, new Exact(all), all)
  }
}
