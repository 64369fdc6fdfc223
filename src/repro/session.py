"""The SparkSession builder shared by the spark-submit jobs, the tests
and the benchmark, so all of them run the same Spark configuration.

Master and driver memory are read when the JVM launches, so they come
from ``spark-submit`` or ``PYSPARK_SUBMIT_ARGS``, not from here.
"""
from pyspark.sql import SparkSession


def get_session(app_name: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    # One shuffle partition per core. Batch queries would coalesce any
    # count (AQE), but streaming runs without AQE and a stateful query
    # keeps the count it started with in its checkpoint: every partition
    # is a state-store task in every micro-batch.
    spark.conf.set(
        "spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism
    )
    return spark
